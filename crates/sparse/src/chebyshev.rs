//! Chebyshev polynomial smoothing — the synchronization-free smoother.
//!
//! Gauss–Seidel needs the latest neighbor values, so even its parallel
//! forms synchronize once per wavefront level or color; Jacobi is
//! parallel but weak. The Chebyshev smoother is the extreme-scale answer
//! the keynote's program converges on: a fixed polynomial in `A` built
//! from SpMV + axpy only — **no dot products, no ordered sweeps, no
//! synchronization beyond the SpMV** — with damping quality chosen by the
//! polynomial degree. Needs an upper bound on the spectrum, supplied by
//! Gershgorin's theorem ([`gershgorin_lmax`]): an estimate that falls
//! below λmax makes the polynomial amplify the top modes.

use crate::csr::Csr;
use crate::idx::SparseIndex;
use crate::ops::SparseOps;
use xsc_core::blas1;

/// Estimates the largest eigenvalue of symmetric `a` by power iteration
/// (relative accuracy of a few percent after ~10 iterations — all the
/// smoother needs; Chebyshev bounds are customarily padded anyway).
pub fn power_method_lmax<A: SparseOps + ?Sized>(a: &A, iters: usize, seed: u64) -> f64 {
    let n = a.nrows();
    assert!(n > 0);
    // Deterministic pseudo-random start vector.
    let mut v: Vec<f64> = (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed);
            xsc_core::cast::count_f64(h % 1000) / 1000.0 + 0.5
        })
        .collect();
    let mut av = vec![0.0; n];
    let mut lambda = 1.0;
    for _ in 0..iters.max(1) {
        let norm = blas1::nrm2(&v).max(f64::MIN_POSITIVE);
        for x in v.iter_mut() {
            *x /= norm;
        }
        a.spmv_par(&v, &mut av);
        lambda = blas1::dot_pairwise(&v, &av);
        std::mem::swap(&mut v, &mut av);
    }
    lambda
}

/// A degree-`k` Chebyshev smoother targeting the eigenvalue interval
/// `[lmax/ratio, lmax]` (the standard AMG choice is `ratio ≈ 4`–`30`:
/// smoothers only need to damp the *upper* part of the spectrum).
#[derive(Debug, Clone, Copy)]
pub struct ChebyshevSmoother {
    /// Upper bound of the damped interval (≳ λmax).
    pub lmax: f64,
    /// Lower bound of the damped interval.
    pub lmin: f64,
    /// Polynomial degree (number of SpMVs per application).
    pub degree: usize,
}

/// Gershgorin's upper bound on the spectrum: `max_i Σ_j |a_ij|` over the
/// stored entries (for the HPCG stencil, 26 + 26 = 52). Every eigenvalue
/// lies at or below it, which no finite number of power iterations can
/// promise.
pub fn gershgorin_lmax<I: SparseIndex>(a: &Csr<I>) -> f64 {
    (0..a.nrows())
        .map(|i| a.row(i).1.iter().fold(0.0, |acc, v| acc + v.abs()))
        .fold(0.0, f64::max)
}

impl ChebyshevSmoother {
    /// Builds a smoother for `a`: takes λmax from [`gershgorin_lmax`] and
    /// damps `[λmax/ratio, λmax]` with the given degree. A power-method
    /// estimate (12 iterations, padded by 10 %) fell below the true λmax
    /// of the 64³ stencil, and the polynomial then amplified the top of
    /// the spectrum instead of damping it: MG-PCG stalled.
    pub fn for_matrix<I: SparseIndex>(a: &Csr<I>, degree: usize, ratio: f64) -> Self {
        assert!(degree >= 1, "degree must be at least 1");
        assert!(ratio > 1.0, "interval ratio must exceed 1");
        let lmax = gershgorin_lmax(a);
        ChebyshevSmoother {
            lmax,
            lmin: lmax / ratio,
            degree,
        }
    }

    /// One smoother application on `A x = b` (`x` updated in place).
    /// Classic three-term recurrence; every operation is an SpMV or an
    /// axpy — embarrassingly parallel.
    pub fn apply<A: SparseOps + ?Sized>(&self, a: &A, b: &[f64], x: &mut [f64]) {
        let n = a.nrows();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let theta = 0.5 * (self.lmax + self.lmin);
        let delta = 0.5 * (self.lmax - self.lmin);
        debug_assert!(delta > 0.0);
        let sigma = theta / delta;
        let mut rho = 1.0 / sigma;

        let mut r = vec![0.0; n];
        a.residual(x, b, &mut r);
        let mut d: Vec<f64> = r.iter().map(|&ri| ri / theta).collect();
        let mut ad = vec![0.0; n];
        for k in 0..self.degree {
            blas1::axpy(1.0, &d, x);
            if k + 1 == self.degree {
                break;
            }
            a.spmv_par(&d, &mut ad);
            blas1::axpy(-1.0, &ad, &mut r);
            let rho_new = 1.0 / (2.0 * sigma - rho);
            for i in 0..n {
                d[i] = rho_new * rho * d[i] + 2.0 * rho_new / delta * r[i];
            }
            rho = rho_new;
        }
    }

    /// Flops of one application: `degree` SpMVs plus O(n) vector work.
    pub fn flops_per_apply<A: SparseOps + ?Sized>(&self, a: &A) -> u64 {
        self.degree as u64 * 2 * a.nnz() as u64 + 6 * a.nrows() as u64 * self.degree as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::ops::unfused_residual;
    use crate::stencil::{build_matrix, build_rhs, Geometry};
    use crate::symgs::symgs;

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        unfused_residual(a, x, b, &mut r);
        blas1::nrm2(&r)
    }

    #[test]
    fn power_method_brackets_gershgorin() {
        let a = build_matrix(Geometry::new(8, 8, 8));
        let lmax = power_method_lmax(&a, 20, 1);
        // 27-point stencil: diag 26, off-diag row sum <= 26 => λmax <= 52;
        // and λmax >= 26 (diagonal Rayleigh quotient exists).
        assert!(lmax > 20.0 && lmax <= 52.5, "lmax {lmax}");
    }

    #[test]
    fn smoother_lmax_is_not_below_the_spectrum() {
        // A 300-iteration power method converges from below to λmax; the
        // smoother's bound must sit at or above it (12 iterations padded
        // by 10 % gave 35.42 here, under the 35.49 the long run reaches).
        let a = build_matrix(Geometry::new(16, 16, 16));
        let s = ChebyshevSmoother::for_matrix(&a, 4, 30.0);
        assert!(s.lmax >= power_method_lmax(&a, 300, 7));
        assert_eq!(s.lmax, 52.0);
        assert_eq!(s.lmin, 52.0 / 30.0);
    }

    #[test]
    fn smoother_reduces_residual_monotonically_over_applications() {
        let a = build_matrix(Geometry::new(6, 6, 6));
        let (b, _) = build_rhs(&a);
        let s = ChebyshevSmoother::for_matrix(&a, 4, 30.0);
        let mut x = vec![0.0; a.nrows()];
        let mut prev = residual_norm(&a, &x, &b);
        for _ in 0..6 {
            s.apply(&a, &b, &mut x);
            let cur = residual_norm(&a, &x, &b);
            assert!(cur < prev, "{cur} vs {prev}");
            prev = cur;
        }
    }

    #[test]
    fn higher_degree_smooths_harder() {
        let a = build_matrix(Geometry::new(6, 6, 6));
        let (b, _) = build_rhs(&a);
        let lo = ChebyshevSmoother::for_matrix(&a, 2, 30.0);
        let hi = ChebyshevSmoother::for_matrix(&a, 6, 30.0);
        let mut x2 = vec![0.0; a.nrows()];
        lo.apply(&a, &b, &mut x2);
        let mut x6 = vec![0.0; a.nrows()];
        hi.apply(&a, &b, &mut x6);
        assert!(residual_norm(&a, &x6, &b) < residual_norm(&a, &x2, &b));
    }

    #[test]
    fn exact_solution_is_fixed_point() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let (b, x_exact) = build_rhs(&a);
        let s = ChebyshevSmoother::for_matrix(&a, 3, 10.0);
        let mut x = x_exact.clone();
        s.apply(&a, &b, &mut x);
        for (xi, ei) in x.iter().zip(x_exact.iter()) {
            assert!((xi - ei).abs() < 1e-10);
        }
    }

    #[test]
    fn competitive_with_symgs_at_moderate_degree() {
        // A degree-4 Chebyshev application (4 parallel SpMVs) should damp
        // at least a comparable amount to one sequential SymGS sweep pair.
        let a = build_matrix(Geometry::new(8, 8, 8));
        let (b, _) = build_rhs(&a);
        let s = ChebyshevSmoother::for_matrix(&a, 4, 30.0);
        let mut xc = vec![0.0; a.nrows()];
        s.apply(&a, &b, &mut xc);
        let mut xg = vec![0.0; a.nrows()];
        symgs(&a, &b, &mut xg);
        let rc = residual_norm(&a, &xc, &b);
        let rg = residual_norm(&a, &xg, &b);
        assert!(rc < rg * 3.0, "chebyshev {rc} vs symgs {rg}");
    }

    #[test]
    fn flops_accounting_scales_with_degree() {
        let a = build_matrix(Geometry::new(4, 4, 4));
        let s2 = ChebyshevSmoother {
            lmax: 50.0,
            lmin: 5.0,
            degree: 2,
        };
        let s4 = ChebyshevSmoother {
            lmax: 50.0,
            lmin: 5.0,
            degree: 4,
        };
        assert!(s4.flops_per_apply(&a) > s2.flops_per_apply(&a));
    }
}
