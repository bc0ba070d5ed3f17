//! Pipelined conjugate gradients (Ghysels–Vanroose).
//!
//! At extreme scale the two dot products in every CG iteration become
//! global allreduces whose latency cannot be hidden — the keynote's
//! "synchronization-reducing algorithms" bullet. Pipelined CG restructures
//! the recurrences so one *merged* reduction per iteration computes both
//! scalars, and that reduction overlaps the next SpMV, at the cost of
//! three extra vectors and slightly weaker numerical robustness.

use crate::csr::CsrMatrix;
use crate::ops::{unfused_residual, SparseOps};
use xsc_core::blas1;

/// Result of a pipelined CG solve.
#[derive(Debug, Clone)]
pub struct PipelinedCgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Relative recurrence-residual history (index 0 = initial).
    pub residual_history: Vec<f64>,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Global reduction *phases* executed. Classic CG needs two dependent
    /// phases per iteration; pipelined CG needs one.
    pub reduction_phases: usize,
}

/// Pipelined CG on `A x = b` (no preconditioner), following Ghysels &
/// Vanroose (2014), Algorithm 3. `x` is updated in place.
///
/// Per iteration: one SpMV (`m = A w`), one merged reduction computing
/// `γ = (r,r)` and `δ = (w,r)`, and five independent axpys. In a
/// distributed run the SpMV overlaps the reduction; here the *schedule* is
/// reproduced and the reduction phases are counted for the scale model.
pub fn pipelined_cg(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    max_iters: usize,
    tol: f64,
) -> PipelinedCgResult {
    let n = a.nrows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(x.len(), n, "solution length mismatch");
    let bnorm = blas1::nrm2(b).max(f64::MIN_POSITIVE);

    let mut r = vec![0.0; n];
    unfused_residual(a, x, b, &mut r);
    let mut w = vec![0.0; n];
    a.spmv_par(&r, &mut w); // w = A r

    // Merged reduction #0: gamma = (r,r), delta = (w,r).
    let mut gamma = blas1::dot_pairwise(&r, &r);
    let mut delta = blas1::dot_pairwise(&w, &r);
    let mut reduction_phases = 1;

    let mut m = vec![0.0; n];
    a.spmv_par(&w, &mut m); // m = A w (overlaps reduction #0 at scale)

    let mut z = vec![0.0; n]; // z = A s
    let mut s = vec![0.0; n]; // s = A p
    let mut p = vec![0.0; n];

    let mut history = vec![gamma.max(0.0).sqrt() / bnorm];
    let mut converged = history[0] <= tol;
    let mut iterations = 0;
    let mut alpha = 0.0f64;
    let mut gamma_prev = gamma;

    while !converged && iterations < max_iters {
        iterations += 1;
        if iterations == 1 {
            alpha = gamma / guard(delta);
            p.copy_from_slice(&r);
            s.copy_from_slice(&w);
            z.copy_from_slice(&m);
        } else {
            // beta and alpha from the merged scalars of the previous step.
            let beta = gamma / guard(gamma_prev);
            alpha = gamma / guard(delta - beta * gamma / guard(alpha));
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
                s[i] = w[i] + beta * s[i];
                z[i] = m[i] + beta * z[i];
            }
        }
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * s[i];
            w[i] -= alpha * z[i];
        }
        // Merged reduction: (r,r) and (w,r) together — ONE phase.
        gamma_prev = gamma;
        gamma = blas1::dot_pairwise(&r, &r);
        delta = blas1::dot_pairwise(&w, &r);
        reduction_phases += 1;
        // SpMV that would overlap the reduction at scale.
        a.spmv_par(&w, &mut m);

        let rel = gamma.max(0.0).sqrt() / bnorm;
        history.push(rel);
        if rel <= tol {
            converged = true;
        }
        // Pipelined CG's recurrence residual drifts; periodically replace
        // it with the true residual (standard residual-replacement remedy).
        if !converged && iterations.is_multiple_of(50) {
            unfused_residual(a, x, b, &mut r);
            a.spmv_par(&r, &mut w);
            gamma = blas1::dot_pairwise(&r, &r);
            delta = blas1::dot_pairwise(&w, &r);
            a.spmv_par(&w, &mut m);
            *history.last_mut().unwrap() = gamma.max(0.0).sqrt() / bnorm;
        }
    }

    PipelinedCgResult {
        iterations,
        residual_history: history,
        converged,
        reduction_phases,
    }
}

#[inline]
fn guard(d: f64) -> f64 {
    if d == 0.0 {
        f64::MIN_POSITIVE
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{pcg, Identity};
    use crate::stencil::{build_matrix, build_rhs, Geometry};

    fn problem(g: Geometry) -> (CsrMatrix, Vec<f64>) {
        let a = build_matrix(g);
        let (mut b, _) = build_rhs(&a);
        for (i, v) in b.iter_mut().enumerate() {
            *v += ((i * 31) % 17) as f64 / 17.0 - 0.5;
        }
        (a, b)
    }

    #[test]
    fn pipelined_cg_converges_to_true_solution() {
        let (a, b) = problem(Geometry::new(8, 8, 8));
        let mut x = vec![0.0; a.nrows()];
        let res = pipelined_cg(&a, &b, &mut x, 500, 1e-9);
        assert!(
            res.converged,
            "history tail {:?}",
            res.residual_history.last()
        );
        let mut r = vec![0.0; a.nrows()];
        unfused_residual(&a, &x, &b, &mut r);
        assert!(
            blas1::nrm2(&r) / blas1::nrm2(&b) < 1e-7,
            "true residual {}",
            blas1::nrm2(&r) / blas1::nrm2(&b)
        );
    }

    #[test]
    fn iteration_count_close_to_classic_cg() {
        let (a, b) = problem(Geometry::new(8, 8, 8));
        let mut x1 = vec![0.0; a.nrows()];
        let classic = pcg(&a, &b, &mut x1, 500, 1e-9, &Identity);
        let mut x2 = vec![0.0; a.nrows()];
        let piped = pipelined_cg(&a, &b, &mut x2, 500, 1e-9);
        assert!(classic.converged && piped.converged);
        let diff = (classic.iterations as i64 - piped.iterations as i64).abs();
        assert!(
            diff <= 1 + classic.iterations as i64 / 4,
            "classic {} vs pipelined {}",
            classic.iterations,
            piped.iterations
        );
    }

    #[test]
    fn one_reduction_phase_per_iteration() {
        let (a, b) = problem(Geometry::new(6, 6, 6));
        let mut x = vec![0.0; a.nrows()];
        let res = pipelined_cg(&a, &b, &mut x, 300, 1e-9);
        assert!(
            res.reduction_phases <= res.iterations + 1 + res.iterations / 50 + 1,
            "{} phases for {} iterations",
            res.reduction_phases,
            res.iterations
        );
    }

    #[test]
    fn zero_rhs_is_immediate() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let b = vec![0.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let res = pipelined_cg(&a, &b, &mut x, 10, 1e-12);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn long_run_residual_replacement_keeps_accuracy() {
        // Force many iterations with a tight tolerance so the i%50
        // replacement path executes.
        let (a, b) = problem(Geometry::new(10, 10, 10));
        let mut x = vec![0.0; a.nrows()];
        let res = pipelined_cg(&a, &b, &mut x, 2000, 1e-13);
        let mut r = vec![0.0; a.nrows()];
        unfused_residual(&a, &x, &b, &mut r);
        let true_rel = blas1::nrm2(&r) / blas1::nrm2(&b);
        assert!(
            true_rel < 1e-10,
            "true residual {true_rel} after {} iterations (converged={})",
            res.iterations,
            res.converged
        );
    }
}
