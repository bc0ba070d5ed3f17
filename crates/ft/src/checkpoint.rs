//! Checkpoint/rollback resilience for iterative solvers, and a fault-aware
//! CG driver comparing recovery strategies (experiment E12).

use crate::inject::FaultKind;
use crate::plan::FaultPlan;
use std::ops::Deref;
use xsc_core::blas1;
use xsc_sparse::cg::{CgHooks, CgState, Flow, Identity, Preconditioner};
use xsc_sparse::ops::unfused_residual;
use xsc_sparse::CsrMatrix;

/// Recovery strategy for [`resilient_cg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Save `x` every `interval` iterations; on detection, roll back to the
    /// last checkpoint and rebuild the CG state.
    Checkpoint {
        /// Iterations between checkpoints.
        interval: usize,
    },
    /// No saved state: on detection, restart CG from the current `x`
    /// (lossy forward recovery — CG is self-correcting given a residual
    /// recompute).
    Restart,
}

/// Report from a fault-injected resilient CG run.
#[derive(Debug, Clone, Default)]
pub struct ResilienceReport {
    /// Whether the tolerance was reached within the budget.
    pub converged: bool,
    /// Total CG iterations executed (including re-done work).
    pub iterations: usize,
    /// Faults injected.
    pub faults: usize,
    /// Recoveries triggered (detections).
    pub recoveries: usize,
    /// Iterations of work discarded by rollbacks.
    pub wasted_iterations: usize,
    /// Final relative residual.
    pub final_residual: f64,
}

/// CG with fault injection and recovery. Every `check_interval` iterations
/// the *true* residual `b − Ax` is recomputed and compared against the
/// recurrence residual; a relative disagreement above `detect_tol` signals
/// a silent fault, triggering the configured recovery.
///
/// Faults fire per executed iteration with the plan's rate (each iteration
/// rolls once, at attempt 0) and corrupt the entry of the iterate `x` the
/// plan's element site picks (a silent data corruption — the hardest case,
/// invisible to the CG recurrences).
///
/// This is `xsc_sparse::cg`'s one CG recurrence (no preconditioner) under
/// the E12 hook set; a recovery resets `r` to `b − Ax` and restarts the
/// recurrence from it.
#[allow(clippy::too_many_arguments)]
pub fn resilient_cg(
    a: &CsrMatrix,
    b: &[f64],
    max_iters: usize,
    tol: f64,
    plan: &FaultPlan<FaultKind>,
    recovery: Recovery,
    check_interval: usize,
    detect_tol: f64,
) -> ResilienceReport {
    let mut x = vec![0.0f64; b.len()];
    let mut hooks = Resilient {
        plan,
        recovery,
        check_interval,
        detect_tol,
        tol,
        saved_x: x.clone(),
        scratch: vec![0.0; b.len()],
        mark: 0,
        report: ResilienceReport::default(),
    };
    let state = CgState::new(a, b, &mut x, &Identity).unwrap_or_else(|e| panic!("{e}"));
    let bnorm = state.bnorm;
    let res = state.run(max_iters, tol, &Identity, &mut hooks);
    unfused_residual(a, &x, b, &mut hooks.scratch);
    let report = &mut hooks.report;
    report.converged = res.converged;
    report.iterations = res.iterations;
    report.final_residual = blas1::nrm2(&hooks.scratch) / bnorm;
    hooks.report
}

/// The hook set of [`resilient_cg`]. Its residuals go through the unfused
/// SpMV-then-subtract [`unfused_residual`], as E12 always has.
struct Resilient<'p> {
    plan: &'p FaultPlan<FaultKind>,
    recovery: Recovery,
    check_interval: usize,
    detect_tol: f64,
    tol: f64,
    /// The iterate at the last checkpoint (checkpoint mode).
    saved_x: Vec<f64>,
    scratch: Vec<f64>,
    /// Iteration of the last checkpoint or recovery: work since then is
    /// what a rollback throws away.
    mark: usize,
    report: ResilienceReport,
}

impl Resilient<'_> {
    /// Rolls `x` back to the checkpoint (checkpoint mode only), then resets
    /// `r = b − Ax` and asks the loop to restart the recurrence.
    fn recover<R: Deref<Target = CsrMatrix>>(&mut self, s: &mut CgState<'_, R>) -> Flow {
        self.report.recoveries += 1;
        if let Recovery::Checkpoint { .. } = self.recovery {
            s.x.copy_from_slice(&self.saved_x);
            self.report.wasted_iterations += s.iteration - self.mark;
        }
        self.mark = s.iteration;
        unfused_residual(&*s.a, s.x, s.b, &mut s.r);
        Flow::Restart
    }
}

impl<R: Deref<Target = CsrMatrix>, P: Preconditioner> CgHooks<R, P> for Resilient<'_> {
    /// State corrupted badly enough to break positive-definiteness.
    fn curvature(&mut self, s: &mut CgState<'_, R>, pap: f64) -> Flow {
        if pap <= 0.0 {
            return self.recover(s);
        }
        Flow::Continue
    }

    /// Fault window: silent corruption of the iterate.
    fn updated(&mut self, s: &mut CgState<'_, R>, _rel: f64) -> Flow {
        let it = s.iteration;
        if let Some(kind) = self.plan.decide(it, 0) {
            if let Some(i) = self.plan.element_index(s.x.len(), it, 0) {
                s.x[i] = kind.apply(s.x[i]);
            }
            self.report.faults += 1;
        }
        Flow::Continue
    }

    /// Validate with the true residual before declaring victory — a
    /// corrupted `x` can leave the recurrence residual small.
    fn converged(&mut self, s: &mut CgState<'_, R>) -> Flow {
        unfused_residual(&*s.a, s.x, s.b, &mut self.scratch);
        if blas1::nrm2(&self.scratch) / s.bnorm <= self.tol * 10.0 {
            return Flow::Stop;
        }
        Flow::Continue
    }

    /// Periodic silent-error detection (recurrence vs true residual), then
    /// checkpointing.
    fn end(&mut self, s: &mut CgState<'_, R>) -> Flow {
        if s.iteration.is_multiple_of(self.check_interval) {
            unfused_residual(&*s.a, s.x, s.b, &mut self.scratch);
            let diff: Vec<f64> = self.scratch.iter().zip(&s.r).map(|(t, r)| t - r).collect();
            if blas1::nrm2(&diff) / s.bnorm > self.detect_tol {
                return self.recover(s);
            }
        }
        let interval = match self.recovery {
            Recovery::Checkpoint { interval } => interval,
            Recovery::Restart => return Flow::Continue,
        };
        if s.iteration.is_multiple_of(interval) {
            self.saved_x.copy_from_slice(s.x);
            self.mark = s.iteration;
        }
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};

    fn problem() -> (CsrMatrix, Vec<f64>) {
        let g = Geometry::new(8, 8, 8);
        let a = build_matrix(g);
        // A non-smooth random rhs keeps CG busy for dozens of iterations,
        // giving the plan a real fault window (b = A·1 converges in
        // ~10 iterations and can finish before any fault fires).
        let (mut b, _) = build_rhs(&a);
        for (i, bi) in b.iter_mut().enumerate() {
            *bi += ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
        }
        (a, b)
    }

    /// The plan of the first seed in `0..64` that fires within iterations
    /// `1..=5` at `rate`, so the faults land before CG converges.
    fn early_firing_plan(rate: f64) -> FaultPlan<FaultKind> {
        (0..64)
            .map(|seed| FaultPlan::new(seed, rate, FaultKind::BitFlip))
            .find(|plan| (1..=5).any(|it| plan.fires_at(it, 0)))
            .expect("some seed in 0..64 fires within iterations 1..=5")
    }

    #[test]
    fn no_faults_behaves_like_plain_cg() {
        let (a, b) = problem();
        let plan = FaultPlan::new(1, 0.0, FaultKind::BitFlip);
        let rep = resilient_cg(&a, &b, 300, 1e-8, &plan, Recovery::Restart, 10, 1e-6);
        assert!(rep.converged);
        assert_eq!(rep.faults, 0);
        assert_eq!(rep.recoveries, 0);
        assert!(rep.final_residual < 1e-7);
    }

    #[test]
    fn converges_through_faults_with_checkpointing() {
        let (a, b) = problem();
        let plan = early_firing_plan(0.15);
        let rep = resilient_cg(
            &a,
            &b,
            2000,
            1e-8,
            &plan,
            Recovery::Checkpoint { interval: 10 },
            5,
            1e-6,
        );
        assert!(rep.converged, "report: {rep:?}");
        assert!(
            rep.faults > 0,
            "fault rate 15% over dozens of iters must fire"
        );
        assert!(rep.recoveries > 0);
        assert!(rep.final_residual < 1e-7);
    }

    #[test]
    fn converges_through_faults_with_restart() {
        let (a, b) = problem();
        let plan = early_firing_plan(0.15);
        let rep = resilient_cg(&a, &b, 2000, 1e-8, &plan, Recovery::Restart, 5, 1e-6);
        assert!(rep.converged, "report: {rep:?}");
        assert!(rep.faults > 0);
        assert!(rep.final_residual < 1e-7);
    }

    #[test]
    fn unprotected_run_fails_where_protected_succeeds() {
        let (a, b) = problem();
        // "Unprotected": detection disabled via a huge detect tolerance and
        // checking interval beyond the budget.
        // Deterministic seed search: find a fault pattern that actually
        // fires early (firing is probabilistic per iteration, and this
        // well-conditioned problem converges in ~20 iterations).
        let mut witnessed = false;
        for seed in 0..50u64 {
            let plan = FaultPlan::new(seed, 0.2, FaultKind::BitFlip);
            let unprotected = resilient_cg(
                &a,
                &b,
                200,
                1e-10,
                &plan,
                Recovery::Restart,
                usize::MAX - 1,
                f64::INFINITY,
            );
            if unprotected.faults == 0 || unprotected.converged {
                continue;
            }
            // Same plan (so the same fault pattern), with detection and
            // checkpointing on.
            let protected = resilient_cg(
                &a,
                &b,
                2000,
                1e-10,
                &plan,
                Recovery::Checkpoint { interval: 5 },
                3,
                1e-6,
            );
            assert!(
                protected.converged,
                "protection must rescue the run: unprotected {unprotected:?}, protected {protected:?}"
            );
            assert!(protected.final_residual < unprotected.final_residual);
            witnessed = true;
            break;
        }
        assert!(
            witnessed,
            "no seed in 0..50 produced an unprotected failure"
        );
    }

    #[test]
    fn wasted_work_is_counted() {
        let (a, b) = problem();
        let plan = early_firing_plan(0.05);
        let rep = resilient_cg(
            &a,
            &b,
            2000,
            1e-8,
            &plan,
            Recovery::Checkpoint { interval: 20 },
            5,
            1e-6,
        );
        if rep.recoveries > 0 {
            assert!(rep.wasted_iterations > 0);
            assert!(rep.wasted_iterations < rep.iterations);
        }
    }
}
