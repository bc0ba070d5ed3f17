//! LU-based mixed-precision iterative refinement, and the two pieces every
//! solver in this crate is built from.
//!
//! The keynote's recipe (Langou et al. / the PLASMA `dsgesv` routine):
//! factor `A` once in a *low* precision (fp32 or fp16) — the `O(n³)` work —
//! then recover full `f64` accuracy with a few `O(n²)` refinement steps:
//!
//! ```text
//! factor: A ≈ L·U                  (low precision, 2n³/3 flops)
//! x₀ = U⁻¹L⁻¹ b                    (low precision)
//! repeat: r = b − A·x              (f64)
//!         d = U⁻¹L⁻¹ r             (low precision)
//!         x = x + d                (f64)
//! ```
//!
//! Converges when `κ(A) · u_low < 1`; the speedup comes from doing the cubic
//! work at the faster precision (~2× for fp32 on fp32-double-rate hardware).
//!
//! This factorization and the `repeat` loop are the crate's only copies:
//! [`crate::gmres_ir`] corrects with preconditioned GMRES in the same loop,
//! [`full_f64_solve`] factors at `Lo = f64`, and [`crate::adaptive`]
//! factors once for whichever tier it picks.

use xsc_core::{cond, factor, gemm, norms, Float, Matrix, Result, Transpose};

/// Convergence report from [`lu_ir_solve`].
#[derive(Debug, Clone)]
pub struct IrReport {
    /// Refinement iterations performed (0 = the low-precision solve was
    /// already accurate enough).
    pub iterations: usize,
    /// Whether the stopping criterion was met.
    pub converged: bool,
    /// `‖r‖∞ / (‖A‖∞ ‖x‖∞)` after each step (index 0 = initial solve).
    pub residual_history: Vec<f64>,
    /// Precision the factorization ran in (e.g. `"fp32"`).
    pub factor_precision: &'static str,
}

/// Default stopping criterion: backward error at the `f64` roundoff floor
/// (`‖r‖∞ / (‖A‖∞‖x‖∞) <= n·ε₆₄`), the criterion LAPACK's `dsgesv` uses.
pub fn default_tolerance(n: usize) -> f64 {
    xsc_core::cast::count_f64(n as u64).sqrt() * f64::EPSILON
}

/// `A` rounded to precision `Lo` and LU-factored there (partial pivoting,
/// 64-wide panels): the `O(n³)` work, done once per solve.
pub(crate) struct LowLu<Lo> {
    lu: Matrix<Lo>,
    piv: Vec<usize>,
}

impl<Lo: Float> LowLu<Lo> {
    /// Factors `a` in `Lo`; fails with [`xsc_core::Error::Singular`].
    pub(crate) fn new(a: &Matrix<f64>) -> Result<Self> {
        let mut lu: Matrix<Lo> = a.convert();
        let piv = factor::getrf_blocked(&mut lu, 64.min(a.rows().max(1)))?;
        Ok(Self { lu, piv })
    }

    /// `U⁻¹L⁻¹ r`: `r` rounded to `Lo`, solved there, widened back.
    pub(crate) fn solve(&self, r: &[f64]) -> Vec<f64> {
        let mut v: Vec<Lo> = r.iter().map(|&x| Lo::from_f64(x)).collect();
        factor::getrf_solve(&self.lu, &self.piv, &mut v);
        v.into_iter().map(|x| x.to_f64()).collect()
    }

    /// Hager's `O(n²)` estimate of `κ₁(A)` from these factors and `a`
    /// rounded to `Lo`.
    pub(crate) fn condest(&self, a: &Matrix<f64>) -> f64 {
        cond::condest(&a.convert::<Lo>(), &self.lu, &self.piv)
    }
}

/// The refinement loop. From `start` (`None`: zero, neither measured nor
/// recorded), compute `r = b − A·x` in `f64` and the backward error
/// `‖r‖∞ / (‖A‖∞‖x‖∞)`; stop at `tol` (default [`default_tolerance`]),
/// after `max_steps` corrections or, with `stall`, once a step fails to
/// halve the error; otherwise add `correct(r)` to `x`. Returns `x`, the
/// steps taken and every measured iterate's backward error, or fails with
/// [`xsc_core::Error::DidNotConverge`] (the steps and the last error).
pub(crate) fn refine(
    a: &Matrix<f64>,
    b: &[f64],
    start: Option<Vec<f64>>,
    tol: Option<f64>,
    max_steps: usize,
    stall: bool,
    mut correct: impl FnMut(&[f64]) -> Vec<f64>,
) -> Result<(Vec<f64>, usize, Vec<f64>)> {
    let tol = tol.unwrap_or_else(|| default_tolerance(b.len()));
    let anorm = norms::inf_norm(a).max(f64::MIN_POSITIVE);
    let measure = |x: &[f64], r: &mut [f64]| {
        r.copy_from_slice(b);
        gemm::gemv(Transpose::No, -1.0, a, x, 1.0, r);
        norms::vec_inf_norm(r) / (anorm * norms::vec_inf_norm(x).max(f64::MIN_POSITIVE))
    };
    let mut r = b.to_vec();
    let mut history: Vec<f64> = start.iter().map(|x| measure(x, &mut r)).collect();
    let mut x = start.unwrap_or_else(|| vec![0.0; b.len()]);
    let (mut iterations, mut stalled) = (0, false);
    loop {
        let last = history.last().copied();
        if last.is_some_and(|be| be <= tol) {
            return Ok((x, iterations, history));
        }
        if stalled || iterations == max_steps {
            return Err(xsc_core::Error::DidNotConverge {
                iterations,
                residual: last.unwrap_or(f64::NAN),
            });
        }
        iterations += 1;
        for (xi, di) in x.iter_mut().zip(correct(&r)) {
            *xi += di;
        }
        let be = measure(&x, &mut r);
        // Refinement that works at least halves the error each step; one
        // that does not is beyond this precision's reach.
        stalled = stall && last.is_some_and(|prev| be >= prev * 0.5);
        history.push(be);
    }
}

/// Solves `A x = b` by LU factorization in precision `Lo` plus `f64`
/// refinement. Returns the solution and a convergence report.
///
/// Fails with [`xsc_core::Error::Singular`] if the low-precision
/// factorization breaks down, or [`xsc_core::Error::DidNotConverge`]
/// (carrying the last residual) if refinement stalls — the caller is then
/// expected to fall back to a full-precision solve, exactly as `dsgesv`
/// does.
pub fn lu_ir_solve<Lo: Float>(
    a: &Matrix<f64>,
    b: &[f64],
    max_iters: usize,
    tol: Option<f64>,
) -> Result<(Vec<f64>, IrReport)> {
    assert!(a.is_square(), "lu_ir_solve requires a square matrix");
    assert_eq!(b.len(), a.rows(), "rhs length mismatch");
    lu_ir(&LowLu::<Lo>::new(a)?, a, b, max_iters, tol)
}

/// [`lu_ir_solve`] on a factorization already made.
pub(crate) fn lu_ir<Lo: Float>(
    lu: &LowLu<Lo>,
    a: &Matrix<f64>,
    b: &[f64],
    max_iters: usize,
    tol: Option<f64>,
) -> Result<(Vec<f64>, IrReport)> {
    let x0 = lu.solve(b);
    let (x, steps, history) = refine(a, b, Some(x0), tol, max_iters, true, |r| lu.solve(r))?;
    let report = IrReport {
        iterations: steps,
        converged: true,
        residual_history: history,
        factor_precision: Lo::precision_name(),
    };
    Ok((x, report))
}

/// Reference full-`f64` direct solve (factor + solve), for the speedup and
/// accuracy comparisons in experiment E03.
pub fn full_f64_solve(a: &Matrix<f64>, b: &[f64]) -> Result<Vec<f64>> {
    Ok(LowLu::<f64>::new(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::Half;
    use xsc_core::gen;

    #[test]
    fn fp32_ir_reaches_f64_accuracy() {
        let n = 64;
        let a = gen::diag_dominant::<f64>(n, 1);
        let b = gen::rhs_for_unit_solution(&a);
        let (x, report) = lu_ir_solve::<f32>(&a, &b, 30, None).unwrap();
        assert!(report.converged);
        assert!(report.iterations >= 1, "fp32 alone can't hit f64 accuracy");
        assert!(report.iterations < 10, "well-conditioned: few iterations");
        assert!(norms::hpl_scaled_residual(&a, &x, &b) < 16.0);
        assert_eq!(report.factor_precision, "fp32");
        // Solution accurate to near machine precision.
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn fp16_ir_converges_on_well_conditioned_systems() {
        let n = 32;
        let a = gen::diag_dominant::<f64>(n, 2);
        let b = gen::rhs_for_unit_solution(&a);
        let (x, report) = lu_ir_solve::<Half>(&a, &b, 60, None).unwrap();
        assert!(report.converged);
        assert!(
            report.iterations >= report.residual_history.len().saturating_sub(2),
            "history bookkeeping"
        );
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-9, "xi = {xi}");
        }
        assert_eq!(report.factor_precision, "fp16");
    }

    #[test]
    fn fp16_needs_more_iterations_than_fp32() {
        let n = 48;
        let a = gen::diag_dominant::<f64>(n, 3);
        let b = gen::rhs_for_unit_solution(&a);
        let (_, r32) = lu_ir_solve::<f32>(&a, &b, 60, None).unwrap();
        let (_, r16) = lu_ir_solve::<Half>(&a, &b, 60, None).unwrap();
        // On a strongly diag-dominant system both precisions can land on
        // the same small iteration count, so compare what is robustly
        // ordered: the initial low-precision solve's backward error
        // (u_fp16/u_fp32 ≈ 8000×) and the refinement effort (never less).
        assert!(
            r16.iterations >= r32.iterations,
            "fp16 ({}) should need at least as much refinement as fp32 ({})",
            r16.iterations,
            r32.iterations
        );
        assert!(
            r16.residual_history[0] > r32.residual_history[0] * 100.0,
            "fp16 initial solve ({:.3e}) should be far less accurate than fp32 ({:.3e})",
            r16.residual_history[0],
            r32.residual_history[0]
        );
    }

    #[test]
    fn ill_conditioning_defeats_low_precision() {
        // κ ~ 1e9 > 1/u_fp16: fp16-IR must fail; f64 direct still works.
        let n = 48;
        let a = gen::ill_conditioned_spd::<f64>(n, 1e9, 4);
        let b = gen::rhs_for_unit_solution(&a);
        let r16 = lu_ir_solve::<Half>(&a, &b, 40, None);
        assert!(r16.is_err(), "fp16 IR should fail at cond 1e9");
        let x = full_f64_solve(&a, &b).unwrap();
        assert!(norms::relative_residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn residual_history_is_monotone_until_convergence() {
        let n = 40;
        let a = gen::diag_dominant::<f64>(n, 5);
        let b = gen::rhs_for_unit_solution(&a);
        let (_, report) = lu_ir_solve::<f32>(&a, &b, 30, None).unwrap();
        for w in report.residual_history.windows(2) {
            assert!(w[1] <= w[0] * 1.01, "history should contract: {w:?}");
        }
    }

    #[test]
    fn explicit_tolerance_is_respected() {
        let n = 32;
        let a = gen::diag_dominant::<f64>(n, 6);
        let b = gen::rhs_for_unit_solution(&a);
        // A loose tolerance should converge with no refinement at all.
        let (_, report) = lu_ir_solve::<f32>(&a, &b, 30, Some(1e-2)).unwrap();
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn ir_matches_full_f64_solution() {
        let n = 56;
        let a = gen::diag_dominant::<f64>(n, 7);
        let b = gen::random_vector::<f64>(n, 8);
        let (x_ir, _) = lu_ir_solve::<f32>(&a, &b, 30, None).unwrap();
        let x_f64 = full_f64_solve(&a, &b).unwrap();
        for (a_, b_) in x_ir.iter().zip(x_f64.iter()) {
            assert!((a_ - b_).abs() < 1e-9);
        }
    }
}
