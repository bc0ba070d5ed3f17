//! The SDC-protected Krylov loop.
//!
//! The failure mode the keynote worries about most in iterative solvers is
//! a DRAM upset in one of the solver's *long-lived buffers* — the matrix
//! values, the iterate, the residual, the search direction — at an
//! arbitrary point of a run that may replay iterations after rollback. A
//! solver's [`FaultPlan`] keys its decisions on `(iteration, sweep)`:
//! `iteration` is the 1-based logical iteration, `sweep` counts rollback
//! replays, so a replayed iteration rolls independently of the original —
//! a rolled-back solve is not doomed to re-fault. The plan's victim site
//! picks the [`SolverBuffer`] and its element site the entry, so campaigns
//! are byte-reproducible across runs and thread counts.
//!
//! [`protected_pcg`] is the consumer: preconditioned CG wrapped in the
//! `xsc-sparse` ABFT detector layer (checksummed SpMV, curvature and
//! norm-jump audits, residual-drift checks, self-checking preconditioner)
//! with **bounded rollback** recovery — in-memory [`SolverCheckpoint`]s
//! every `k` iterations, validated before capture so a poisoned state is
//! never checkpointed, and an [`xsc_runtime::RecoveryPolicy`] governing
//! how many consecutive rollbacks of one checkpoint are allowed and how
//! much (simulated, seeded-jitter) backoff each one charges.
//! [`unprotected_pcg`] runs the same loop with the same injections and no
//! detectors — the control arm of the E20 chaos campaign.

use crate::inject::FaultKind;
use crate::plan::FaultPlan;
use std::ops::DerefMut;
use std::time::Duration;
use xsc_core::blas1;
use xsc_runtime::RecoveryPolicy;
use xsc_sparse::abft::{residual_drift, CheckedApply, SdcDetected, SpmvGuard};
use xsc_sparse::cg::{CgHooks, CgResult, CgState, Flow, Preconditioner};
use xsc_sparse::ops::SparseOps;

/// The long-lived solver buffers a memory-fault campaign can corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverBuffer {
    /// The stored nonzero values of the operator (format-specific slab).
    MatrixValues,
    /// The current iterate `x`.
    Iterate,
    /// The recurrence residual `r`.
    Residual,
    /// The search direction `p`.
    SearchDirection,
}

impl SolverBuffer {
    /// All buffers, in the order the plan indexes them.
    pub fn all() -> [SolverBuffer; 4] {
        [
            SolverBuffer::MatrixValues,
            SolverBuffer::Iterate,
            SolverBuffer::Residual,
            SolverBuffer::SearchDirection,
        ]
    }

    /// The buffer a fault of `plan` at `(iteration, sweep)` hits: the
    /// plan's victim site over [`SolverBuffer::all`].
    pub fn hit_by(plan: &FaultPlan<FaultKind>, iteration: usize, sweep: u32) -> SolverBuffer {
        let all = SolverBuffer::all();
        all[plan
            .victim_index(all.len(), iteration, sweep)
            .unwrap_or_default()]
    }

    /// Stable short name (used in reports and JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            SolverBuffer::MatrixValues => "matrix_values",
            SolverBuffer::Iterate => "iterate",
            SolverBuffer::Residual => "residual",
            SolverBuffer::SearchDirection => "search_direction",
        }
    }
}

/// One injected memory fault, as recorded by the fault-injecting loops.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionRecord {
    /// Logical solver iteration the fault fired at (1-based).
    pub iteration: usize,
    /// Rollback sweep the fault fired in (0 = the original pass).
    pub sweep: u32,
    /// Buffer the fault landed in.
    pub buffer: SolverBuffer,
    /// Element index within the buffer.
    pub index: usize,
    /// Value before corruption.
    pub old: f64,
    /// Value after corruption.
    pub new: f64,
    /// Corruption magnitude `|new − old| · √n / ‖b‖` — the perturbation
    /// relative to the per-component scale of the right-hand side, which
    /// is the scale every drift verdict is normalised by. Campaigns use
    /// this to separate *material* corruptions (which the detectors must
    /// catch) from sub-threshold ones (which by construction cannot move
    /// the solve beyond its tolerance).
    pub delta_rel: f64,
}

/// One detector verdict, as recorded by [`protected_pcg`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionRecord {
    /// Logical solver iteration the detector fired at (1-based).
    pub iteration: usize,
    /// Rollback sweep the detector fired in.
    pub sweep: u32,
    /// Which invariant broke.
    pub what: SdcDetected,
}

/// A full in-memory snapshot of the protected CG state, captured at a
/// validated iteration boundary and restored on rollback. The snapshot is
/// bit-exact: restore reproduces the captured state to the last bit, so a
/// replay of an uninterrupted schedule is bit-identical to never having
/// rolled back.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverCheckpoint {
    /// Iteration the snapshot was taken at.
    pub iteration: usize,
    /// Iterate `x`.
    pub x: Vec<f64>,
    /// Recurrence residual `r`.
    pub r: Vec<f64>,
    /// Search direction `p`.
    pub p: Vec<f64>,
    /// Preconditioned residual `z`.
    pub z: Vec<f64>,
    /// The scalar recurrence state `rᵀz`.
    pub rz: f64,
    /// Length of the residual history at capture (for truncation).
    pub history_len: usize,
}

impl SolverCheckpoint {
    /// Captures the current solver state.
    pub fn capture(
        iteration: usize,
        x: &[f64],
        r: &[f64],
        p: &[f64],
        z: &[f64],
        rz: f64,
        history_len: usize,
    ) -> Self {
        SolverCheckpoint {
            iteration,
            x: x.to_vec(),
            r: r.to_vec(),
            p: p.to_vec(),
            z: z.to_vec(),
            rz,
            history_len,
        }
    }

    /// Writes the snapshot back into the live buffers, returning
    /// `(iteration, rz, history_len)` for the scalar state.
    pub fn restore(
        &self,
        x: &mut [f64],
        r: &mut [f64],
        p: &mut [f64],
        z: &mut [f64],
    ) -> (usize, f64, usize) {
        x.copy_from_slice(&self.x);
        r.copy_from_slice(&self.r);
        p.copy_from_slice(&self.p);
        z.copy_from_slice(&self.z);
        (self.iteration, self.rz, self.history_len)
    }
}

/// Relative drift `‖r_rec − (b − Ax)‖ / ‖b‖` above which the protected
/// loop declares the state corrupted.
pub const DRIFT_TOL: f64 = 1e-6;

/// Largest plausible one-iteration growth factor of `‖r‖/‖b‖`.
pub const NORM_JUMP_LIMIT: f64 = 1e4;

/// Relative tolerance of the SpMV column-sum checksum.
pub const CHECKSUM_TOL: f64 = xsc_sparse::abft::DEFAULT_CHECKSUM_TOL;

/// Consecutive iterations with a frozen `‖r‖` (relative change below
/// `1e-12`) before the protected loop declares a stalled search direction.
/// A huge corruption in `p` breaks no residual invariant — the state stays
/// consistent — but drives `α` to zero; the freeze is its signature.
/// Recovery is a direction restart (`p ← z`), not a rollback, because `x`
/// and `r` are still valid.
pub const STALL_WINDOW: usize = 4;

/// Hard cap on total executed iterations, as a multiple of the caller's
/// `max_iters` — bounds replay work when faults keep firing.
pub const REPLAY_BUDGET_FACTOR: usize = 4;

/// Cadence of the protected loop's checkpoints and drift checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtectConfig {
    /// Capture a validated checkpoint every this many iterations.
    pub checkpoint_interval: usize,
    /// Run the residual-drift check every this many iterations (it costs
    /// one SpMV, so it is the expensive detector).
    pub drift_check_interval: usize,
}

impl Default for ProtectConfig {
    fn default() -> Self {
        ProtectConfig {
            checkpoint_interval: 5,
            drift_check_interval: 2,
        }
    }
}

/// Why a protected solve gave up instead of converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The recovery policy's per-checkpoint retry budget was exhausted:
    /// `max_attempts` consecutive rollbacks replayed from the same
    /// checkpoint and every replay was flagged again.
    RollbackBudgetExhausted,
    /// Total executed iterations (originals plus replays) exceeded
    /// [`REPLAY_BUDGET_FACTOR`]` · max_iters`.
    ReplayBudgetExhausted,
}

/// Typed outcome of a protected solve: the detected → rolled-back →
/// converged path vs the aborted one.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// The solve reached (validated) convergence, possibly after
    /// rollbacks.
    Converged {
        /// Committed (logical) iterations at convergence.
        iterations: usize,
        /// Rollbacks performed on the way.
        rollbacks: u32,
    },
    /// The iteration budget ran out without convergence and without an
    /// unresolved detection.
    Unconverged {
        /// Committed iterations executed.
        iterations: usize,
        /// Rollbacks performed.
        rollbacks: u32,
    },
    /// Recovery gave up.
    Aborted {
        /// Logical iteration at which the solve gave up.
        at_iteration: usize,
        /// Rollbacks performed before giving up.
        rollbacks: u32,
        /// Which budget ran out.
        reason: AbortReason,
    },
}

/// A solve that has not iterated yet.
impl Default for RecoveryOutcome {
    fn default() -> Self {
        RecoveryOutcome::Unconverged {
            iterations: 0,
            rollbacks: 0,
        }
    }
}

impl RecoveryOutcome {
    /// `true` for the validated-convergence outcome.
    pub fn converged(&self) -> bool {
        matches!(self, RecoveryOutcome::Converged { .. })
    }
}

/// Everything a chaos campaign needs to score one solve.
#[derive(Debug, Clone, Default)]
pub struct SdcReport {
    /// How the solve ended.
    pub outcome: RecoveryOutcome,
    /// Faults injected, in firing order.
    pub injections: Vec<InjectionRecord>,
    /// Detector verdicts, in firing order (empty for unprotected runs —
    /// they have no detectors).
    pub detections: Vec<DetectionRecord>,
    /// Total iterations executed, replays included.
    pub executed_iterations: usize,
    /// Iterations discarded by rollbacks (`executed − committed`).
    pub replayed_iterations: usize,
    /// Direction restarts (`p ← z`) performed after stall detections —
    /// the recovery for consistent-state search-direction corruption.
    pub direction_restarts: u32,
    /// `‖r‖/‖b‖` after each committed iteration (index 0 = initial).
    pub residual_history: Vec<f64>,
    /// The *recomputed* final relative residual `‖b − Ax‖/‖b‖` — immune
    /// to recurrence corruption, so an unprotected run that "converged"
    /// to a wrong answer is visible here.
    pub final_true_residual: f64,
    /// Total simulated backoff charged by the recovery policy.
    pub simulated_backoff: Duration,
    /// Flops executed, solver plus detectors (HPCG accounting).
    pub flops: u64,
}

/// The fault model both SDC drivers share, and the report they fill in:
/// at the start of every pass it draws from the plan and corrupts the
/// chosen buffer. On its own it is the hook set of [`unprotected_pcg`].
struct Injector<'p> {
    plan: &'p FaultPlan<FaultKind>,
    /// Rollback replays so far; the protected loop bumps it.
    sweep: u32,
    bnorm: f64,
    report: SdcReport,
}

impl<'p> Injector<'p> {
    fn new(plan: &'p FaultPlan<FaultKind>, bnorm: f64) -> Self {
        Injector {
            plan,
            sweep: 0,
            bnorm,
            report: SdcReport::default(),
        }
    }

    /// Counts the pass, then applies the fault the plan draws for it.
    fn inject<R: DerefMut<Target: SparseOps>>(&mut self, s: &mut CgState<'_, R>) {
        self.report.executed_iterations += 1;
        let (iteration, sweep) = (s.iteration, self.sweep);
        let Some(kind) = self.plan.decide(iteration, sweep) else {
            return;
        };
        let buffer = SolverBuffer::hit_by(self.plan, iteration, sweep);
        let target: &mut [f64] = match buffer {
            SolverBuffer::MatrixValues => s.a.values_mut(),
            SolverBuffer::Iterate => s.x,
            SolverBuffer::Residual => &mut s.r,
            SolverBuffer::SearchDirection => &mut s.p,
        };
        let Some(index) = self.plan.element_index(target.len(), iteration, sweep) else {
            return;
        };
        let old = target[index];
        let new = kind.apply(old);
        target[index] = new;
        let per_component = self.bnorm / (s.b.len().max(1) as f64).sqrt();
        self.report.injections.push(InjectionRecord {
            iteration,
            sweep,
            buffer,
            index,
            old,
            new,
            delta_rel: (new - old).abs() / per_component.max(f64::MIN_POSITIVE),
        });
    }

    /// Logs a detector verdict against the current sweep.
    fn detected(&mut self, iteration: usize, what: SdcDetected) {
        let sweep = self.sweep;
        self.report.detections.push(DetectionRecord {
            iteration,
            sweep,
            what,
        });
    }

    /// Completes the report from the finished solve: `res`'s history and
    /// flops, the outcome, and the recomputed `‖b − Ax‖/‖b‖` — immune to
    /// recurrence corruption, so it is the ground truth campaigns score
    /// against.
    fn finish<A: SparseOps + ?Sized>(
        mut self,
        res: CgResult,
        abort: Option<(usize, AbortReason)>,
        a: &A,
        b: &[f64],
        x: &[f64],
    ) -> SdcReport {
        let rep = &mut self.report;
        // Every detection but a stall verdict rolled back (or aborted).
        let rollbacks = rep.detections.len() as u32 - rep.direction_restarts;
        let iterations = res.iterations;
        rep.outcome = match abort {
            Some((at_iteration, reason)) => RecoveryOutcome::Aborted {
                at_iteration,
                rollbacks,
                reason,
            },
            None if res.converged => RecoveryOutcome::Converged {
                iterations,
                rollbacks,
            },
            None => RecoveryOutcome::Unconverged {
                iterations,
                rollbacks,
            },
        };
        let mut r = vec![0.0; b.len()];
        a.fused_residual(x, b, &mut r);
        rep.final_true_residual = blas1::nrm2(&r) / self.bnorm;
        rep.flops = res.flops + 2 * a.nnz() as u64;
        rep.residual_history = res.residual_history;
        self.report
    }
}

impl<R: DerefMut<Target: SparseOps>, P: Preconditioner> CgHooks<R, P> for Injector<'_> {
    fn begin(&mut self, s: &mut CgState<'_, R>) -> Flow {
        self.inject(s);
        Flow::Continue
    }
}

/// The hook set of [`protected_pcg`]: fault injection, the ABFT detectors,
/// validated checkpoints and bounded rollback.
struct Protect<'p> {
    faults: Injector<'p>,
    policy: &'p RecoveryPolicy,
    drift_every: usize,
    checkpoint_every: usize,
    replay_budget: usize,
    pristine: Vec<f64>,
    guard: SpmvGuard,
    scratch: Vec<f64>,
    checkpoint: SolverCheckpoint,
    consecutive_rollbacks: u32,
    abort: Option<(usize, AbortReason)>,
    stall_count: usize,
}

/// Snapshots the live solver state.
fn snapshot<R>(s: &CgState<'_, R>) -> SolverCheckpoint {
    SolverCheckpoint::capture(s.iteration, s.x, &s.r, &s.p, &s.z, s.rz, s.history.len())
}

impl Protect<'_> {
    /// Acts on a detector's verdict. `Err` restores the last good
    /// checkpoint (the operator's value slab included), charges backoff
    /// and bumps the sweep — or aborts once the policy's
    /// consecutive-rollback budget is spent.
    fn audit<R>(&mut self, s: &mut CgState<'_, R>, verdict: Result<(), SdcDetected>) -> Flow
    where
        R: DerefMut<Target: SparseOps>,
    {
        let Err(what) = verdict else {
            return Flow::Continue;
        };
        self.faults.detected(s.iteration, what);
        self.consecutive_rollbacks += 1;
        if self.consecutive_rollbacks > self.policy.max_attempts {
            self.abort = Some((s.iteration, AbortReason::RollbackBudgetExhausted));
            return Flow::Stop;
        }
        let (backoff, seed) = (self.policy.backoff, self.policy.seed);
        let rep = &mut self.faults.report;
        rep.simulated_backoff +=
            backoff.delay(self.checkpoint.iteration, self.consecutive_rollbacks, seed);
        s.a.values_mut().copy_from_slice(&self.pristine);
        let (it, rz, history_len) = self.checkpoint.restore(s.x, &mut s.r, &mut s.p, &mut s.z);
        rep.replayed_iterations += s.iteration.saturating_sub(it);
        s.iteration = it;
        s.rz = rz;
        s.history.truncate(history_len);
        self.faults.sweep += 1;
        self.stall_count = 0;
        Flow::Retry
    }

    /// Recurrence residual vs recomputed `b − Ax` (one SpMV). A NaN fails
    /// the comparison, so it trips the detector too.
    fn drift_check<R: DerefMut<Target: SparseOps>>(&mut self, s: &mut CgState<'_, R>) -> Flow {
        let observed = residual_drift(&*s.a, s.x, s.b, &s.r, &mut self.scratch);
        s.flops += 2 * s.a.nnz() as u64 + 3 * s.r.len() as u64;
        let what = SdcDetected::ResidualDrift {
            iteration: s.iteration,
            observed,
            tolerated: DRIFT_TOL,
        };
        self.audit(s, (observed <= DRIFT_TOL).then_some(()).ok_or(what))
    }
}

impl<R: DerefMut<Target: SparseOps>, P: CheckedApply> CgHooks<R, P> for Protect<'_> {
    /// The replay budget, then the fault model.
    fn begin(&mut self, s: &mut CgState<'_, R>) -> Flow {
        if self.faults.report.executed_iterations >= self.replay_budget {
            // The pass `s.iteration` already counts never runs.
            self.abort = Some((s.iteration - 1, AbortReason::ReplayBudgetExhausted));
            return Flow::Stop;
        }
        self.faults.inject(s);
        Flow::Continue
    }

    /// The SpMV column-sum checksum.
    fn spmv(&mut self, s: &mut CgState<'_, R>) -> Flow {
        s.flops += self.guard.flops_per_check();
        let verdict = self.guard.check(&s.p, &s.ap);
        self.audit(s, verdict)
    }

    /// `pᵀAp` must be positive and finite.
    fn curvature(&mut self, s: &mut CgState<'_, R>, pap: f64) -> Flow {
        let what = SdcDetected::NegativeCurvature {
            iteration: s.iteration,
            value: pap,
        };
        let healthy = pap > 0.0 && pap.is_finite();
        self.audit(s, healthy.then_some(()).ok_or(what))
    }

    /// The norm-jump audit (a NaN trips it too), the stall count and the
    /// periodic drift check.
    fn updated(&mut self, s: &mut CgState<'_, R>, rel: f64) -> Flow {
        let prev = s.history.last().copied().unwrap_or(f64::INFINITY);
        let floor = prev.max(f64::MIN_POSITIVE);
        let what = SdcDetected::NormJump {
            iteration: s.iteration,
            observed: rel / floor,
            tolerated: NORM_JUMP_LIMIT,
        };
        // Count the stall first: a rollback resets the count anyway.
        let frozen = (rel - prev).abs() <= 1e-12 * floor;
        self.stall_count = if frozen { self.stall_count + 1 } else { 0 };
        let plausible = rel <= NORM_JUMP_LIMIT * floor;
        let flow = self.audit(s, plausible.then_some(()).ok_or(what));
        if flow != Flow::Continue || !s.iteration.is_multiple_of(self.drift_every) {
            return flow;
        }
        self.drift_check(s)
    }

    /// Validated convergence: confirm the recurrence against the
    /// recomputed residual before believing it.
    fn converged(&mut self, s: &mut CgState<'_, R>) -> Flow {
        match self.drift_check(s) {
            Flow::Continue => Flow::Stop,
            flow => flow,
        }
    }

    /// The self-checking preconditioner application.
    fn precondition(&mut self, m: &P, s: &mut CgState<'_, R>) -> Flow {
        let verdict = m.apply_checked(&s.r, &mut s.z);
        s.flops += m.flops_per_checked_apply();
        self.audit(s, verdict)
    }

    /// The stall verdict: a corrupted `p` cannot break the drift invariant
    /// — `x` and `r` are updated consistently with whatever direction was
    /// used — so the state is valid and the corruption lives in `p`.
    /// Restart the direction instead of rolling back.
    fn restart_direction(&mut self, s: &mut CgState<'_, R>) -> bool {
        if self.stall_count < STALL_WINDOW {
            return false;
        }
        let (iteration, window) = (s.iteration, STALL_WINDOW);
        self.faults
            .detected(iteration, SdcDetected::Stalled { iteration, window });
        self.faults.report.direction_restarts += 1;
        self.stall_count = 0;
        true
    }

    /// The validated checkpoint: only capture state the drift check
    /// vouches for, so an undetected corruption is never baked in.
    fn end(&mut self, s: &mut CgState<'_, R>) -> Flow {
        if !s.iteration.is_multiple_of(self.checkpoint_every) {
            return Flow::Continue;
        }
        let flow = self.drift_check(s);
        if flow == Flow::Continue {
            self.checkpoint = snapshot(s);
            self.consecutive_rollbacks = 0;
        }
        flow
    }
}

/// Preconditioned CG under the `xsc-sparse` ABFT detector layer with
/// bounded-rollback recovery.
///
/// This is [`xsc_sparse::cg`]'s one PCG recurrence run under a hook set —
/// on a fault-free run (`plan` rate 0) the iterates and residual history
/// are bit-identical to [`xsc_sparse::cg::pcg`] — that adds, per
/// iteration:
///
/// 1. the memory-fault injection point (start of the iteration);
/// 2. the checksummed SpMV ([`CHECKSUM_TOL`]);
/// 3. a curvature audit (`pᵀAp` must be positive and finite);
/// 4. a norm-jump audit (`‖r‖` must not grow by [`NORM_JUMP_LIMIT`]);
/// 5. a residual-drift check every `cfg.drift_check_interval` iterations;
/// 6. the self-checking preconditioner application;
/// 7. a *validated* checkpoint every `cfg.checkpoint_interval`
///    iterations — the drift check runs first, so a state that silently
///    absorbed a corruption is never captured;
/// 8. validated convergence — the stopping test must be confirmed by the
///    recomputed residual before the solve reports success;
/// 9. a direction restart (`p ← z`) after [`STALL_WINDOW`] frozen
///    iterations.
///
/// Any other detector verdict triggers rollback to the last good
/// checkpoint: buffers and recurrence scalars are restored bit-exactly, the
/// operator's value slab is restored from its pristine snapshot, the plan's
/// sweep counter is bumped (replays roll fresh faults), and the recovery
/// policy charges its seeded-jitter backoff. `policy.max_attempts`
/// consecutive rollbacks of the same checkpoint — or a total replay budget
/// of [`REPLAY_BUDGET_FACTOR`]` · max_iters` iterations — abort the solve.
///
/// # Panics
/// If `b` or `x` does not match the operator's size.
#[allow(clippy::too_many_arguments)] // solver + fault plan + tuning + policy are irreducibly separate inputs
pub fn protected_pcg<A: SparseOps + ?Sized, P: CheckedApply>(
    a: &mut A,
    b: &[f64],
    x: &mut [f64],
    max_iters: usize,
    tol: f64,
    m: &P,
    plan: &FaultPlan<FaultKind>,
    cfg: &ProtectConfig,
    policy: &RecoveryPolicy,
) -> SdcReport {
    let state = CgState::new(&mut *a, b, &mut *x, m).unwrap_or_else(|e| panic!("{e}"));
    let mut hooks = Protect {
        faults: Injector::new(plan, state.bnorm),
        policy,
        drift_every: cfg.drift_check_interval.max(1),
        checkpoint_every: cfg.checkpoint_interval.max(1),
        replay_budget: REPLAY_BUDGET_FACTOR * max_iters.max(1),
        pristine: state.a.values().to_vec(),
        guard: SpmvGuard::with_tol(&*state.a, CHECKSUM_TOL),
        scratch: vec![0.0; b.len()],
        checkpoint: snapshot(&state),
        consecutive_rollbacks: 0,
        abort: None,
        stall_count: 0,
    };
    let res = state.run(max_iters, tol, m, &mut hooks);
    hooks.faults.finish(res, hooks.abort, a, b, x)
}

/// The control arm: the same CG recurrence with the same injection point
/// and **no** detectors, checkpoints, or validation — what a solver that
/// trusts its hardware looks like under the same fault schedule. The
/// recurrence stopping test is taken at face value, so the reported
/// outcome may claim convergence while [`SdcReport::final_true_residual`]
/// shows the answer is wrong — exactly the silent-corruption hazard the
/// protected loop exists to close.
///
/// # Panics
/// If `b` or `x` does not match the operator's size.
pub fn unprotected_pcg<A: SparseOps + ?Sized, P: Preconditioner>(
    a: &mut A,
    b: &[f64],
    x: &mut [f64],
    max_iters: usize,
    tol: f64,
    m: &P,
    plan: &FaultPlan<FaultKind>,
) -> SdcReport {
    let state = CgState::new(&mut *a, b, &mut *x, m).unwrap_or_else(|e| panic!("{e}"));
    let mut faults = Injector::new(plan, state.bnorm);
    let res = state.run(max_iters, tol, m, &mut faults);
    faults.finish(res, None, a, b, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsc_sparse::cg::{pcg, Identity};
    use xsc_sparse::ops::{FormatMatrix, SparseFormat};
    use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};

    fn problem(fmt: SparseFormat) -> (FormatMatrix, Vec<f64>) {
        let a = build_matrix(Geometry::new(8, 8, 8));
        let (b, _) = build_rhs(&a);
        (FormatMatrix::convert(a, fmt).unwrap(), b)
    }

    fn quiet_plan() -> FaultPlan<FaultKind> {
        FaultPlan::new(1, 0.0, FaultKind::BitFlip)
    }

    #[test]
    fn plan_decisions_are_deterministic_and_sweep_independent() {
        let p1 = FaultPlan::new(42, 0.3, FaultKind::BitFlip);
        let p2 = FaultPlan::new(42, 0.3, FaultKind::BitFlip);
        let draw = |p: &FaultPlan<FaultKind>, i| {
            let kind = p.decide(i, 0)?;
            Some((SolverBuffer::hit_by(p, i, 0), kind))
        };
        let a: Vec<_> = (1..200).map(|i| draw(&p1, i)).collect();
        let b: Vec<_> = (1..200).map(|i| draw(&p2, i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|d| d.is_some()));
        assert!(a.iter().any(|d| d.is_none()));
        assert_eq!(p1.total_fired(), p2.total_fired());
        // A replayed iteration rolls independently: somewhere the verdicts
        // of sweep 0 and sweep 1 differ.
        assert!((1..200).any(|i| p1.fires_at(i, 0) != p1.fires_at(i, 1)));
    }

    #[test]
    fn plan_hits_every_buffer_eventually() {
        let p = FaultPlan::new(7, 1.0, FaultKind::BitFlip);
        let mut seen = std::collections::BTreeSet::new();
        for i in 1..100 {
            seen.insert(SolverBuffer::hit_by(&p, i, 0).name());
        }
        assert_eq!(seen.len(), SolverBuffer::all().len());
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64) * 0.1 - 1.5).collect();
        let r: Vec<f64> = x.iter().map(|v| v * 3.0).collect();
        let p: Vec<f64> = x.iter().map(|v| v - 0.25).collect();
        let z: Vec<f64> = x.iter().map(|v| v * v).collect();
        let ck = SolverCheckpoint::capture(9, &x, &r, &p, &z, 1.25, 10);
        let mut x2 = vec![0.0; 32];
        let mut r2 = vec![0.0; 32];
        let mut p2 = vec![0.0; 32];
        let mut z2 = vec![0.0; 32];
        let (it, rz, hl) = ck.restore(&mut x2, &mut r2, &mut p2, &mut z2);
        assert_eq!((it, rz, hl), (9, 1.25, 10));
        assert_eq!(x2, x);
        assert_eq!(r2, r);
        assert_eq!(p2, p);
        assert_eq!(z2, z);
    }

    #[test]
    fn fault_free_protected_run_matches_plain_pcg_bitwise() {
        for fmt in SparseFormat::all() {
            let (mut a, b) = problem(fmt);
            let mut x_ref = vec![0.0; b.len()];
            let reference = pcg(&a, &b, &mut x_ref, 60, 1e-9, &Identity);
            let mut x = vec![0.0; b.len()];
            let report = protected_pcg(
                &mut a,
                &b,
                &mut x,
                60,
                1e-9,
                &Identity,
                &quiet_plan(),
                &ProtectConfig::default(),
                &RecoveryPolicy::default(),
            );
            assert!(report.outcome.converged(), "{fmt}: {:?}", report.outcome);
            assert_eq!(x, x_ref, "{fmt}: iterates must be bit-identical");
            assert_eq!(report.residual_history, reference.residual_history);
            assert!(report.detections.is_empty(), "{fmt}: false positive");
            assert_eq!(report.replayed_iterations, 0);
        }
    }

    #[test]
    fn stuck_fault_is_detected_and_rolled_back_to_convergence() {
        let (mut a, b) = problem(SparseFormat::CsrUsize);
        // One guaranteed catastrophic fault per sweep-0 iteration window:
        // high rate, huge stuck value.
        let plan = FaultPlan::new(33, 0.25, FaultKind::Stuck(1e30));
        let mut x = vec![0.0; b.len()];
        let report = protected_pcg(
            &mut a,
            &b,
            &mut x,
            200,
            1e-8,
            &Identity,
            &plan,
            &ProtectConfig::default(),
            &RecoveryPolicy::with_max_attempts(20),
        );
        assert!(
            !report.injections.is_empty(),
            "campaign must have injected something"
        );
        assert!(
            !report.detections.is_empty(),
            "1e30 corruptions must be detected"
        );
        assert!(
            report.outcome.converged(),
            "rollback must still converge: {:?}",
            report.outcome
        );
        assert!(
            report.final_true_residual <= 1e-7,
            "validated convergence must be real: {:.3e}",
            report.final_true_residual
        );
        assert!(report.replayed_iterations > 0);
    }

    #[test]
    fn unprotected_run_is_silently_wrong_under_the_same_faults() {
        let (mut a, b) = problem(SparseFormat::CsrUsize);
        let plan = FaultPlan::new(33, 0.25, FaultKind::Stuck(1e30));
        let mut x = vec![0.0; b.len()];
        let report = unprotected_pcg(&mut a, &b, &mut x, 200, 1e-8, &Identity, &plan);
        assert!(!report.injections.is_empty());
        // Either it never converges, or it "converges" to a wrong answer;
        // both are failures the true residual exposes.
        assert!(
            report.final_true_residual > 1e-7,
            "unprotected run should not genuinely converge: {:.3e}",
            report.final_true_residual
        );
    }

    #[test]
    fn rollback_budget_exhaustion_aborts() {
        let (mut a, b) = problem(SparseFormat::CsrUsize);
        // Every iteration faults catastrophically; one retry allowed.
        let plan = FaultPlan::new(5, 1.0, FaultKind::Stuck(f64::NAN));
        let mut x = vec![0.0; b.len()];
        let report = protected_pcg(
            &mut a,
            &b,
            &mut x,
            50,
            1e-8,
            &Identity,
            &plan,
            &ProtectConfig::default(),
            &RecoveryPolicy::with_max_attempts(2),
        );
        assert!(
            matches!(
                report.outcome,
                RecoveryOutcome::Aborted {
                    reason: AbortReason::RollbackBudgetExhausted,
                    ..
                }
            ),
            "{:?}",
            report.outcome
        );
        assert!(report.simulated_backoff >= Duration::ZERO);
    }

    #[test]
    fn protected_runs_are_byte_reproducible() {
        let run = || {
            let (mut a, b) = problem(SparseFormat::Csr32);
            let plan = FaultPlan::new(99, 0.15, FaultKind::BitFlip);
            let mut x = vec![0.0; b.len()];
            let rep = protected_pcg(
                &mut a,
                &b,
                &mut x,
                150,
                1e-8,
                &Identity,
                &plan,
                &ProtectConfig::default(),
                &RecoveryPolicy::with_max_attempts(10),
            );
            (x, rep)
        };
        let (x1, r1) = run();
        let (x2, r2) = run();
        assert_eq!(x1, x2);
        assert_eq!(r1.injections, r2.injections);
        assert_eq!(r1.detections, r2.detections);
        assert_eq!(r1.residual_history, r2.residual_history);
        assert_eq!(r1.executed_iterations, r2.executed_iterations);
    }

    #[test]
    fn matrix_corruption_is_restored_from_pristine_snapshot() {
        let (mut a, b) = problem(SparseFormat::SellCSigma);
        let pristine = a.values().to_vec();
        let plan = FaultPlan::new(12, 0.3, FaultKind::Stuck(1e25));
        let mut x = vec![0.0; b.len()];
        let report = protected_pcg(
            &mut a,
            &b,
            &mut x,
            200,
            1e-8,
            &Identity,
            &plan,
            &ProtectConfig::default(),
            &RecoveryPolicy::with_max_attempts(25),
        );
        let RecoveryOutcome::Converged { rollbacks, .. } = report.outcome else {
            panic!("{:?}", report.outcome);
        };
        assert!(report.final_true_residual <= 1e-7);
        let last_matrix_fault = report
            .injections
            .iter()
            .filter(|i| i.buffer == SolverBuffer::MatrixValues)
            .map(|i| i.sweep)
            .max()
            .expect("the seed must land a matrix-value injection");
        // Every rollback ends a sweep, so a matrix fault in an earlier
        // sweep than the final one was rolled back — and the pristine
        // restore must have brought the value slab back bit for bit.
        assert!(
            last_matrix_fault < rollbacks,
            "last matrix fault in sweep {last_matrix_fault}, {rollbacks} rollbacks"
        );
        assert_eq!(a.values(), &pristine[..]);
    }
}
