//! The adaptive mixed-precision solver: estimate conditioning, then pick
//! the cheapest method expected to converge.
//!
//! This is the dispatcher production libraries wrap around refinement
//! (LAPACK's `dsgesv` falls back to full precision when IR stalls; the
//! keynote's program adds GMRES-IR as the middle tier):
//!
//! * `κ·u₃₂ < 0.1`          → classic fp32-LU iterative refinement;
//! * `κ·u₃₂² < 0.1`         → GMRES-IR with the fp32 factors;
//! * otherwise               → full f64 factorization.
//!
//! `A` is factored in fp32 once per call: the `O(n²)` condition estimate
//! (Hager's method) and whichever fp32 tier runs, including GMRES-IR after
//! classic IR stalls, all reuse it, so mis-prediction costs little.

use crate::gmres_ir::gmres_ir;
use crate::ir::{full_f64_solve, lu_ir, LowLu};
use xsc_core::{cond, Matrix, Result};

/// Which path the adaptive solver took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Classic fp32 factorization + refinement.
    ClassicIr,
    /// GMRES-IR with fp32 factors as preconditioner.
    GmresIr,
    /// Full f64 direct solve.
    FullPrecision,
}

/// Report from [`adaptive_solve`].
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// The path taken.
    pub choice: SolverChoice,
    /// Condition estimate that drove the decision (from fp32 factors).
    pub cond_estimate: f64,
    /// Whether a cheaper path was attempted and abandoned first.
    pub fallbacks: usize,
}

/// Solves `A x = b` choosing the cheapest reliable precision strategy.
pub fn adaptive_solve(a: &Matrix<f64>, b: &[f64]) -> Result<(Vec<f64>, AdaptiveReport)> {
    assert!(a.is_square(), "adaptive_solve requires a square matrix");
    assert_eq!(b.len(), a.rows(), "rhs length mismatch");
    let u32_ = f64::from(f32::EPSILON);

    // The one fp32 factorization, freed before the f64 tier; its failure
    // alone routes to f64.
    let lu = LowLu::<f32>::new(a).ok();
    let cond_estimate = lu.as_ref().map_or(f64::INFINITY, |lu| lu.condest(a));
    let mut fallbacks = 0usize;
    let report = |choice, fallbacks| AdaptiveReport {
        choice,
        cond_estimate,
        fallbacks,
    };

    if let Some(lu) = lu {
        if cond::ir_should_converge(cond_estimate, u32_) {
            match lu_ir(&lu, a, b, 30, None) {
                Ok((x, _)) => return Ok((x, report(SolverChoice::ClassicIr, fallbacks))),
                Err(_) => fallbacks += 1, // estimate was optimistic; escalate
            }
        }
        if cond_estimate * u32_ * u32_ < 0.1 {
            match gmres_ir(&lu, a, b, 30, 30, None) {
                Ok((x, _)) => return Ok((x, report(SolverChoice::GmresIr, fallbacks))),
                Err(_) => fallbacks += 1,
            }
        }
    }
    let x = full_f64_solve(a, b)?;
    Ok((x, report(SolverChoice::FullPrecision, fallbacks)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_core::{gen, norms};

    #[test]
    fn well_conditioned_takes_classic_ir() {
        let a = gen::diag_dominant::<f64>(64, 1);
        let b = gen::rhs_for_unit_solution(&a);
        let (x, rep) = adaptive_solve(&a, &b).unwrap();
        assert_eq!(
            rep.choice,
            SolverChoice::ClassicIr,
            "κ≈{}",
            rep.cond_estimate
        );
        assert!(norms::relative_residual(&a, &x, &b) < 1e-9);
        assert_eq!(rep.fallbacks, 0);
    }

    #[test]
    fn moderately_ill_conditioned_takes_gmres_ir() {
        // κ ~ 3e8 > 1/u32 (~1.2e7) but << 1/u32².
        let a = gen::ill_conditioned_spd::<f64>(64, 3e8, 2);
        let b = gen::rhs_for_unit_solution(&a);
        let (x, rep) = adaptive_solve(&a, &b).unwrap();
        assert!(
            matches!(
                rep.choice,
                SolverChoice::GmresIr | SolverChoice::FullPrecision
            ),
            "κ≈{:.2e} chose {:?}",
            rep.cond_estimate,
            rep.choice
        );
        assert!(norms::relative_residual(&a, &x, &b) < 1e-7);
    }

    #[test]
    fn extreme_conditioning_takes_full_precision() {
        let a = gen::ill_conditioned_spd::<f64>(48, 1e13, 3);
        let b = gen::rhs_for_unit_solution(&a);
        let (x, rep) = adaptive_solve(&a, &b).unwrap();
        assert_eq!(
            rep.choice,
            SolverChoice::FullPrecision,
            "κ≈{:.2e}",
            rep.cond_estimate
        );
        // At κ=1e13 even f64 loses digits; backward stability is the bar.
        assert!(norms::hpl_scaled_residual(&a, &x, &b) < 16.0);
    }

    #[test]
    fn estimate_is_in_the_right_decade() {
        let a = gen::ill_conditioned_spd::<f64>(48, 1e6, 4);
        let b = gen::rhs_for_unit_solution(&a);
        let (_, rep) = adaptive_solve(&a, &b).unwrap();
        assert!(
            rep.cond_estimate > 1e4 && rep.cond_estimate < 1e9,
            "estimate {:.2e}",
            rep.cond_estimate
        );
    }
}
