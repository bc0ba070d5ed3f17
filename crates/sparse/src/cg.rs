//! Preconditioned conjugate gradients with deterministic reductions.
//!
//! [`CgState::run`] is the workspace's one PCG recurrence. [`pcg`] and
//! [`try_pcg`] run it bare; the fault-tolerant solvers in `xsc-ft` run it
//! under [`CgHooks`] values that inject faults, audit invariants,
//! checkpoint, and roll back or restart.

use crate::error::SolverError;
use crate::ops::SparseOps;
use std::ops::Deref;
use xsc_core::blas1;

/// A (left) preconditioner: `z ≈ A⁻¹ r`.
pub trait Preconditioner {
    /// Applies the preconditioner: `z <- M⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);
    /// Flops of one application (for benchmark accounting).
    fn flops_per_apply(&self) -> u64;
}

/// The identity preconditioner (plain CG).
pub struct Identity;

impl Preconditioner for Identity {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
    fn flops_per_apply(&self) -> u64 {
        0
    }
}

/// Outcome of a PCG solve.
#[derive(Debug, Clone)]
pub struct CgResult {
    /// Iterations actually performed.
    pub iterations: usize,
    /// `‖r‖₂ / ‖b‖₂` after each iteration (index 0 = initial residual).
    pub residual_history: Vec<f64>,
    /// Whether the tolerance was reached within the budget.
    pub converged: bool,
    /// Total flops executed, HPCG accounting (SpMV `2·nnz`, dot `2n`,
    /// axpy-like `3n`, plus the preconditioner's own count).
    pub flops: u64,
}

impl CgResult {
    /// Final relative residual.
    pub fn final_residual(&self) -> f64 {
        *self.residual_history.last().unwrap_or(&f64::INFINITY)
    }
}

/// Preconditioned conjugate gradients on `A x = b` starting from `x` (in
/// place). Stops when `‖r‖/‖b‖ <= tol` or after `max_iters` iterations.
///
/// All inner products use the fixed-tree pairwise reduction, so the
/// iteration count and iterates are bit-reproducible across thread counts —
/// one of the keynote's "new rules" for numerical software.
///
/// Generic over [`SparseOps`], so the same solver runs on any storage
/// format; because every format folds rows identically, the iterates are
/// bit-identical across formats too.
///
/// # Panics
/// If `b` or `x` does not match the operator's size.
pub fn pcg<A: SparseOps + ?Sized, P: Preconditioner>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    max_iters: usize,
    tol: f64,
    m: &P,
) -> CgResult {
    let s = CgState::new(a, b, x, m).unwrap_or_else(|e| panic!("{e}"));
    s.run(max_iters, tol, m, &mut ())
}

/// Fallible form of [`pcg`]: mis-sized vectors and loss of positive
/// definiteness (`pᵀAp ≤ 0`, which [`pcg`] silently treats as "stop
/// iterating") come back as typed [`SolverError`]s the resilience layer
/// can react to instead of a panic or a quietly unconverged result.
pub fn try_pcg<A: SparseOps + ?Sized, P: Preconditioner>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    max_iters: usize,
    tol: f64,
    m: &P,
) -> Result<CgResult, SolverError> {
    let mut strict = Strict(None);
    let res = CgState::new(a, b, x, m)?.run(max_iters, tol, m, &mut strict);
    strict.0.map_or(Ok(res), Err)
}

/// What [`CgState::run`] does after a hook returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Carry on with the pass. From [`CgHooks::converged`]: reject the
    /// convergence and keep iterating.
    Continue,
    /// Leave the loop. From [`CgHooks::converged`] this accepts
    /// convergence; from any other hook the solve ends unconverged.
    Stop,
    /// Start the next pass from the state the hook restored (rollback).
    Retry,
    /// Restart the recurrence — `z ← M⁻¹r`, `p ← z`, recompute `rᵀz` — from
    /// the `r` the hook has reset to `b − Ax`, then start the next pass.
    Restart,
}

/// Hooks into the one PCG recurrence, [`CgState::run`]. Every method has a
/// no-op default, so plain [`pcg`] (hooks `()`) monomorphizes to the bare
/// loop; fault injection, ABFT guards, checkpoints and recovery are hook
/// values.
///
/// `R` is how the loop holds the operator: `&A` for plain solves, `&mut A`
/// for hooks that write the value slab (fault injection, pristine restore).
pub trait CgHooks<R, P: Preconditioner> {
    /// Start of a pass; `s.iteration` already counts it.
    fn begin(&mut self, _s: &mut CgState<'_, R>) -> Flow {
        Flow::Continue
    }
    /// After the SpMV wrote `s.ap = A·s.p`.
    fn spmv(&mut self, _s: &mut CgState<'_, R>) -> Flow {
        Flow::Continue
    }
    /// The curvature `pᵀAp`, before `α` is formed. The default is lenient:
    /// it stops on `pᵀAp ≤ 0`, where the operator lost positive
    /// definiteness.
    fn curvature(&mut self, _s: &mut CgState<'_, R>, pap: f64) -> Flow {
        if pap <= 0.0 {
            return Flow::Stop;
        }
        Flow::Continue
    }
    /// After `x` and `r` moved; `rel` is the new `‖r‖/‖b‖`, pushed onto
    /// `s.history` once this returns [`Flow::Continue`].
    fn updated(&mut self, _s: &mut CgState<'_, R>, _rel: f64) -> Flow {
        Flow::Continue
    }
    /// The recurrence residual met the tolerance; [`Flow::Stop`] accepts.
    fn converged(&mut self, _s: &mut CgState<'_, R>) -> Flow {
        Flow::Stop
    }
    /// Applies the preconditioner, `s.z ← M⁻¹ s.r`, and counts its flops.
    fn precondition(&mut self, m: &P, s: &mut CgState<'_, R>) -> Flow {
        m.apply(&s.r, &mut s.z);
        s.flops += m.flops_per_apply();
        Flow::Continue
    }
    /// `true` replaces this pass's direction update with `p ← z`.
    fn restart_direction(&mut self, _s: &mut CgState<'_, R>) -> bool {
        false
    }
    /// End of a pass.
    fn end(&mut self, _s: &mut CgState<'_, R>) -> Flow {
        Flow::Continue
    }
}

/// The hooks of [`pcg`]: every default.
impl<R, P: Preconditioner> CgHooks<R, P> for () {}

/// The hooks of [`try_pcg`]: the strict curvature check, which keeps the
/// breakdown as a typed error instead of just stopping.
struct Strict(Option<SolverError>);

impl<R, P: Preconditioner> CgHooks<R, P> for Strict {
    fn curvature(&mut self, s: &mut CgState<'_, R>, pap: f64) -> Flow {
        if pap <= 0.0 {
            let iteration = s.iteration;
            self.0 = Some(SolverError::IndefiniteOperator { iteration, pap });
            return Flow::Stop;
        }
        Flow::Continue
    }
}

/// The live state of one PCG solve, open to every [`CgHooks`] method.
pub struct CgState<'s, R> {
    /// The operator, held however the caller holds it.
    pub a: R,
    /// The right-hand side.
    pub b: &'s [f64],
    /// The iterate, updated in place.
    pub x: &'s mut [f64],
    /// The recurrence residual.
    pub r: Vec<f64>,
    /// The preconditioned residual `M⁻¹r`.
    pub z: Vec<f64>,
    /// The search direction.
    pub p: Vec<f64>,
    /// `A·p` from the current pass.
    pub ap: Vec<f64>,
    /// The scalar recurrence state `rᵀz`.
    pub rz: f64,
    /// Iterations so far, the pass in flight included.
    pub iteration: usize,
    /// `‖r‖/‖b‖` after each iteration (index 0 = initial residual).
    pub history: Vec<f64>,
    /// `‖b‖₂`, floored away from zero.
    pub bnorm: f64,
    /// Flops so far, HPCG accounting; hooks add their own.
    pub flops: u64,
}

impl<'s, R: Deref<Target: SparseOps>> CgState<'s, R> {
    /// Sets up PCG on `A x = b` from the current `x`: `r = b − Ax`,
    /// `z = M⁻¹r`, `p = z`. Mis-sized vectors are typed errors.
    pub fn new<P: Preconditioner>(
        a: R,
        b: &'s [f64],
        x: &'s mut [f64],
        m: &P,
    ) -> Result<Self, SolverError> {
        let expected = a.nrows();
        for (what, got) in [("rhs", b.len()), ("solution", x.len())] {
            if got != expected {
                return Err(SolverError::ShapeMismatch {
                    what,
                    expected,
                    got,
                });
            }
        }
        let mut r = vec![0.0; expected];
        a.fused_residual(x, b, &mut r);
        let mut s = CgState {
            flops: 2 * a.nnz() as u64,
            a,
            b,
            x,
            z: vec![0.0; expected],
            p: vec![0.0; expected],
            ap: vec![0.0; expected],
            r,
            rz: 0.0,
            iteration: 0,
            history: Vec::new(),
            bnorm: blas1::nrm2(b).max(f64::MIN_POSITIVE),
        };
        s.restart(m);
        s.history.push(blas1::nrm2(&s.r) / s.bnorm);
        Ok(s)
    }

    /// Runs the PCG recurrence under `hooks` until `‖r‖/‖b‖ <= tol` is
    /// accepted, a hook stops the solve, or `s.iteration` reaches
    /// `max_iters`. The one place the CG steps live: every solver in the
    /// workspace that runs this recurrence runs it here.
    pub fn run<P, H>(mut self, max_iters: usize, tol: f64, m: &P, hooks: &mut H) -> CgResult
    where
        P: Preconditioner,
        H: CgHooks<R, P>,
    {
        let (nnz, nf) = (self.a.nnz() as u64, self.r.len() as u64);
        let s = &mut self;
        let mut converged = s.history[0] <= tol;
        macro_rules! flow {
            ($verdict:expr) => {
                match $verdict {
                    Flow::Continue => {}
                    Flow::Stop => break,
                    Flow::Retry => continue,
                    Flow::Restart => {
                        s.restart(m);
                        continue;
                    }
                }
            };
        }
        while !converged && s.iteration < max_iters {
            s.iteration += 1;
            flow!(hooks.begin(s));
            s.a.spmv_par(&s.p, &mut s.ap);
            s.flops += 2 * nnz;
            flow!(hooks.spmv(s));
            let pap = blas1::dot_pairwise(&s.p, &s.ap);
            s.flops += 2 * nf;
            flow!(hooks.curvature(s, pap));
            let alpha = s.rz / pap;
            blas1::axpy(alpha, &s.p, s.x);
            blas1::axpy(-alpha, &s.ap, &mut s.r);
            let rel = blas1::nrm2(&s.r) / s.bnorm;
            s.flops += 8 * nf;
            flow!(hooks.updated(s, rel));
            s.history.push(rel);
            if rel <= tol {
                let verdict = hooks.converged(s);
                converged = verdict == Flow::Stop;
                flow!(verdict);
            }
            flow!(hooks.precondition(m, s));
            let rz_new = blas1::dot_pairwise(&s.r, &s.z);
            s.flops += 2 * nf;
            if hooks.restart_direction(s) {
                s.p.copy_from_slice(&s.z);
            } else {
                let beta = rz_new / s.rz;
                // p <- z + beta p.
                for (pi, &zi) in s.p.iter_mut().zip(s.z.iter()) {
                    *pi = zi + beta * *pi;
                }
                s.flops += 2 * nf;
            }
            s.rz = rz_new;
            flow!(hooks.end(s));
        }
        CgResult {
            iterations: self.iteration,
            residual_history: self.history,
            converged,
            flops: self.flops,
        }
    }
}

impl<R> CgState<'_, R> {
    /// `z ← M⁻¹r`, `p ← z`, `rz ← rᵀz`: (re)starts the recurrence from `r`.
    fn restart<P: Preconditioner>(&mut self, m: &P) {
        m.apply(&self.r, &mut self.z);
        self.p.copy_from_slice(&self.z);
        self.rz = blas1::dot_pairwise(&self.r, &self.z);
        self.flops += m.flops_per_apply() + 2 * self.r.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mg::MgPreconditioner;
    use crate::stencil::{build_matrix, build_rhs, Geometry};

    #[test]
    fn plain_cg_solves_stencil_system() {
        let g = Geometry::new(8, 8, 8);
        let a = build_matrix(g);
        let (b, x_exact) = build_rhs(&a);
        let mut x = vec![0.0; a.nrows()];
        let res = pcg(&a, &b, &mut x, 500, 1e-10, &Identity);
        assert!(res.converged, "final residual {}", res.final_residual());
        for (xi, ei) in x.iter().zip(x_exact.iter()) {
            assert!((xi - ei).abs() < 1e-6);
        }
        assert!(res.flops > 0);
    }

    #[test]
    fn mg_preconditioning_cuts_iterations() {
        let g = Geometry::new(16, 16, 16);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);

        let mut x1 = vec![0.0; a.nrows()];
        let plain = pcg(&a, &b, &mut x1, 500, 1e-9, &Identity);

        let mg = MgPreconditioner::new(g, 3);
        let mut x2 = vec![0.0; a.nrows()];
        let pre = pcg(&a, &b, &mut x2, 500, 1e-9, &mg);

        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "MG-CG took {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn residual_history_is_recorded_and_final_small() {
        let g = Geometry::new(6, 6, 6);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mut x = vec![0.0; a.nrows()];
        let res = pcg(&a, &b, &mut x, 200, 1e-8, &Identity);
        assert_eq!(res.residual_history.len(), res.iterations + 1);
        assert!(res.final_residual() <= 1e-8);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let g = Geometry::new(4, 4, 4);
        let a = build_matrix(g);
        let b = vec![0.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let res = pcg(&a, &b, &mut x, 10, 1e-12, &Identity);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn warm_start_from_exact_solution() {
        let g = Geometry::new(4, 4, 4);
        let a = build_matrix(g);
        let (b, x_exact) = build_rhs(&a);
        let mut x = x_exact;
        let res = pcg(&a, &b, &mut x, 10, 1e-10, &Identity);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn try_pcg_reports_shape_and_curvature_breakdowns() {
        use crate::error::SolverError;
        let g = Geometry::new(4, 4, 4);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mut x_short = vec![0.0; a.nrows() - 1];
        assert!(matches!(
            try_pcg(&a, &b, &mut x_short, 10, 1e-8, &Identity),
            Err(SolverError::ShapeMismatch {
                what: "solution",
                ..
            })
        ));
        // Negate the operator: curvature goes negative immediately.
        let mut neg = a.clone();
        for v in neg.values_mut() {
            *v = -*v;
        }
        let mut x = vec![0.0; a.nrows()];
        assert!(matches!(
            try_pcg(&neg, &b, &mut x, 10, 1e-8, &Identity),
            Err(SolverError::IndefiniteOperator { iteration: 1, .. })
        ));
    }

    #[test]
    fn try_pcg_matches_pcg_on_healthy_systems() {
        let g = Geometry::new(6, 6, 6);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mut x1 = vec![0.0; a.nrows()];
        let r1 = pcg(&a, &b, &mut x1, 100, 1e-9, &Identity);
        let mut x2 = vec![0.0; a.nrows()];
        let r2 = try_pcg(&a, &b, &mut x2, 100, 1e-9, &Identity).unwrap();
        assert_eq!(x1, x2, "fallible path must be bit-identical");
        assert_eq!(r1.residual_history, r2.residual_history);
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let g = Geometry::new(8, 8, 4);
        let a = build_matrix(g);
        let (b, _) = build_rhs(&a);
        let mut x1 = vec![0.0; a.nrows()];
        let r1 = pcg(&a, &b, &mut x1, 50, 1e-12, &Identity);
        let mut x2 = vec![0.0; a.nrows()];
        let r2 = pcg(&a, &b, &mut x2, 50, 1e-12, &Identity);
        assert_eq!(x1, x2, "iterates must be bit-identical");
        assert_eq!(r1.residual_history, r2.residual_history);
    }
}
