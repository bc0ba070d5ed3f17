//! s-step (communication-avoiding) conjugate gradients.
//!
//! Classic CG performs two global reductions *per iteration*. CA-CG
//! (Chronopoulos–Gear; Carson–Demmel) takes `s` iterations per **one**
//! reduction: build the Krylov basis
//! `V = [p, Āp, …, Āˢp, r, Ār, …, Āˢ⁻¹r]` with the matrix-powers kernel
//! (one ghost exchange), form the Gram matrix `G = VᵀV` (one reduction),
//! and run `s` exact CG updates entirely in the `2s+1`-dimensional
//! coordinate space — every inner product becomes a tiny `Gᵀ·` product of
//! coefficient vectors. In exact arithmetic the iterates equal classic
//! CG's; in floating point the monomial basis limits `s` to small values
//! (the basis is scaled by a spectral estimate to push that limit out).

use crate::chebyshev::power_method_lmax;
use crate::csr::CsrMatrix;
use crate::ops::{unfused_residual, SparseOps};
use xsc_core::blas1;

/// Result of an s-step CG solve.
#[derive(Debug, Clone)]
pub struct SStepCgResult {
    /// Total (inner) CG iterations performed.
    pub iterations: usize,
    /// Outer steps = global reductions performed.
    pub outer_steps: usize,
    /// Relative residual after each *outer* step (index 0 = initial).
    pub residual_history: Vec<f64>,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// s-step CG on `A x = b` (`x` updated in place). `s` is the number of CG
/// steps per reduction; 2–4 is the numerically comfortable range with the
/// monomial basis.
pub fn s_step_cg(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    s: usize,
    max_outer: usize,
    tol: f64,
) -> SStepCgResult {
    let n = a.nrows();
    assert!(s >= 1, "s must be at least 1");
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(x.len(), n, "solution length mismatch");
    let bnorm = blas1::nrm2(b).max(f64::MIN_POSITIVE);

    // Basis scaling: replace A by Ā = A/σ so monomial powers stay O(1).
    let sigma = (power_method_lmax(a, 10, 3) * 0.55).max(f64::MIN_POSITIVE);

    let dim = 2 * s + 1;
    let mut r = vec![0.0; n];
    unfused_residual(a, x, b, &mut r);
    let mut p = r.clone();

    let mut history = vec![blas1::nrm2(&r) / bnorm];
    let mut converged = history[0] <= tol;
    let mut iterations = 0;
    let mut outer_steps = 0;

    // Workspace: basis vectors and Gram matrix.
    let mut basis: Vec<Vec<f64>> = vec![vec![0.0; n]; dim];
    let mut g = vec![0.0f64; dim * dim];

    while !converged && outer_steps < max_outer {
        outer_steps += 1;
        // Matrix-powers kernel: basis[0..=s] = [p, Āp, ..., Ā^s p],
        // basis[s+1..dim] = [r, Ār, ..., Ā^{s-1} r].
        basis[0].copy_from_slice(&p);
        for k in 0..s {
            let (head, tail) = basis.split_at_mut(k + 1);
            a.spmv_par(&head[k], &mut tail[0]);
            for v in tail[0].iter_mut() {
                *v /= sigma;
            }
        }
        basis[s + 1].copy_from_slice(&r);
        for k in 0..s.saturating_sub(1) {
            let (head, tail) = basis.split_at_mut(s + 2 + k);
            a.spmv_par(&head[s + 1 + k], &mut tail[0]);
            for v in tail[0].iter_mut() {
                *v /= sigma;
            }
        }
        // ONE global reduction: G = VᵀV (symmetric).
        for i in 0..dim {
            for j in i..dim {
                let d = blas1::dot_pairwise(&basis[i], &basis[j]);
                g[i * dim + j] = d;
                g[j * dim + i] = d;
            }
        }

        // Coordinates: p' = e_0, r' = e_{s+1}, x' = 0.
        let mut pc = vec![0.0f64; dim];
        pc[0] = 1.0;
        let mut rc = vec![0.0f64; dim];
        rc[s + 1] = 1.0;
        let mut xc = vec![0.0f64; dim];

        // B: the shift operator in coordinates — ĀV e_i = σ⁻¹A v_i = v_{i+1}
        // within each Krylov block (undefined on the blocks' last columns,
        // which the s inner steps never populate). Includes the σ factor
        // used to *undo* the scaling in the CG updates: A v_i = σ v_{i+1}.
        let shift = |c: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0f64; dim];
            for i in 0..s {
                out[i + 1] += sigma * c[i];
            }
            for i in 0..s.saturating_sub(1) {
                out[s + 2 + i] += sigma * c[s + 1 + i];
            }
            // c must not use the last column of either block.
            debug_assert!(c[s].abs() < 1e30);
            out
        };
        let gdot = |u: &[f64], v: &[f64]| -> f64 {
            let mut acc = 0.0;
            for i in 0..dim {
                if u[i] == 0.0 {
                    continue;
                }
                let mut row = 0.0;
                for j in 0..dim {
                    row += g[i * dim + j] * v[j];
                }
                acc += u[i] * row;
            }
            acc
        };

        let mut rr = gdot(&rc, &rc);
        for _ in 0..s {
            iterations += 1;
            let apc = shift(&pc);
            let pap = gdot(&pc, &apc);
            if pap <= 0.0 || !pap.is_finite() {
                break; // basis breakdown; fall back to recomputing outside
            }
            let alpha = rr / pap;
            for i in 0..dim {
                xc[i] += alpha * pc[i];
                rc[i] -= alpha * apc[i];
            }
            let rr_new = gdot(&rc, &rc);
            let beta = rr_new / rr.max(f64::MIN_POSITIVE);
            rr = rr_new;
            for i in 0..dim {
                pc[i] = rc[i] + beta * pc[i];
            }
        }

        // Map back: x += V x', r = V r', p = V p' — then recompute the true
        // residual (cheap insurance against basis roundoff).
        for i in 0..n {
            let mut dx = 0.0;
            let mut pv = 0.0;
            for (k, base) in basis.iter().enumerate() {
                if xc[k] != 0.0 {
                    dx += xc[k] * base[i];
                }
                if pc[k] != 0.0 {
                    pv += pc[k] * base[i];
                }
            }
            x[i] += dx;
            p[i] = pv;
        }
        unfused_residual(a, x, b, &mut r);
        let rel = blas1::nrm2(&r) / bnorm;
        history.push(rel);
        if rel <= tol {
            converged = true;
        }
    }

    SStepCgResult {
        iterations,
        outer_steps,
        residual_history: history,
        converged,
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
            *v += ((i * 53) % 29) as f64 / 29.0 - 0.5;
        }
        (a, b)
    }

    #[test]
    fn s_step_cg_converges_for_small_s() {
        for s in [1usize, 2, 3, 4] {
            let (a, b) = problem(Geometry::new(8, 8, 8));
            let mut x = vec![0.0; a.nrows()];
            let res = s_step_cg(&a, &b, &mut x, s, 500, 1e-9);
            assert!(res.converged, "s={s}: {:?}", res.residual_history.last());
            let mut r = vec![0.0; a.nrows()];
            unfused_residual(&a, &x, &b, &mut r);
            assert!(blas1::nrm2(&r) / blas1::nrm2(&b) < 1e-8, "s={s}");
        }
    }

    #[test]
    fn iteration_count_tracks_classic_cg() {
        let (a, b) = problem(Geometry::new(8, 8, 8));
        let mut x0 = vec![0.0; a.nrows()];
        let classic = pcg(&a, &b, &mut x0, 500, 1e-9, &Identity);
        let mut x1 = vec![0.0; a.nrows()];
        let ca = s_step_cg(&a, &b, &mut x1, 3, 500, 1e-9);
        assert!(classic.converged && ca.converged);
        // Same Krylov space: total inner iterations within ~40% of classic
        // (roundoff in the basis costs a few).
        assert!(
            (ca.iterations as f64) < classic.iterations as f64 * 1.4 + 4.0,
            "classic {} vs CA {}",
            classic.iterations,
            ca.iterations
        );
    }

    #[test]
    fn reductions_are_amortized() {
        let (a, b) = problem(Geometry::new(6, 6, 6));
        let mut x = vec![0.0; a.nrows()];
        let res = s_step_cg(&a, &b, &mut x, 4, 500, 1e-9);
        assert!(res.converged);
        // One reduction per outer step; ~s iterations per outer step.
        assert!(
            res.outer_steps * 4 + 4 >= res.iterations,
            "outer {} vs inner {}",
            res.outer_steps,
            res.iterations
        );
        assert!(
            res.outer_steps < res.iterations,
            "must amortize: {} reductions for {} iterations",
            res.outer_steps,
            res.iterations
        );
    }

    #[test]
    fn s_equals_one_matches_classic_cg_closely() {
        let (a, b) = problem(Geometry::new(6, 6, 6));
        let mut x0 = vec![0.0; a.nrows()];
        let classic = pcg(&a, &b, &mut x0, 300, 1e-10, &Identity);
        let mut x1 = vec![0.0; a.nrows()];
        let ca = s_step_cg(&a, &b, &mut x1, 1, 300, 1e-10);
        assert!(classic.converged && ca.converged);
        let diff = (classic.iterations as i64 - ca.iterations as i64).abs();
        assert!(
            diff <= 3,
            "classic {} vs s=1 {}",
            classic.iterations,
            ca.iterations
        );
    }

    #[test]
    fn zero_rhs_is_immediate() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let b = vec![0.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let res = s_step_cg(&a, &b, &mut x, 3, 10, 1e-12);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
