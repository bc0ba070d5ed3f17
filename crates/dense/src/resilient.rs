//! ABFT-guarded resilient tiled Cholesky: checksum verification as the
//! *detector*, task re-execution as the *corrector*.
//!
//! The classic ABFT recipe (see `xsc-ft::abft`) corrects a corrupted entry
//! algebraically from row/column checksums. Combined with a resilient
//! runtime there is a simpler and more general corrector: **run the task
//! again**. Each tile kernel here
//!
//! 1. snapshots its output tile on attempt 1 (and restores it on a retry,
//!    making the read-modify-write kernels idempotent),
//! 2. computes the normal `O(nb³)` tile operation,
//! 3. verifies an `O(nb²)` checksum identity over its inputs and outputs,
//!    and returns [`TaskFault`] on mismatch.
//!
//! The resilient executor then re-executes exactly the faulted task — the
//! fault domain is one tile kernel, not the factorization. The checksum
//! identities (with `e` the all-ones vector, sums restricted to the live
//! lower triangle where only that triangle is stored):
//!
//! * `POTRF`: `L(Lᵀe) = Ae`
//! * `TRSM` (`X = B·L⁻ᵀ`): `X(Lᵀe) = Be`
//! * `SYRK` (`C' = C − A·Aᵀ`): `eᵀ(C − C') = eᵀ(A·Aᵀ)` column-wise
//! * `GEMM` (`C' = C − A·Bᵀ`): `C'e = Ce − A(Bᵀe)`
//!
//! Detection catches large corruptions (bit flips in high bits, stuck or
//! zeroed values) — a corruption below the roundoff-scaled tolerance
//! escapes, exactly as with classic ABFT.
//!
//! Fault injection for chaos testing comes from an optional
//! [`FaultPlan`]; injected panics land after the tile update (the most
//! adversarial moment: output clobbered, then the "crash"), and injected
//! silent corruption lands between the update and the verification, where
//! real silent errors live.
//!
//! The tile operations are [`crate::cholesky`]'s op list; this module
//! only wraps each op in one guard (poison check, stall, snapshot/restore,
//! the op, injected panic, corruption, checksum check).

use crate::cholesky::{tile_ops, Kind, TileOp};
use crate::poison::Poison;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use xsc_core::norms;
#[cfg(test)]
use xsc_core::{factor, Error};
use xsc_core::{Matrix, Result, TileMatrix};
use xsc_ft::abft::{checksum_tolerance, cholesky_checksum, lower_colsums, sym_lower_rowsums};
use xsc_ft::inject::FaultKind;
use xsc_ft::plan::{ChaosKind, FaultPlan, STALL};
use xsc_runtime::{trace::Trace, Attempt, Executor, RecoveryPolicy, TaskFault, TaskGraph};

/// Outcome of a resilient ABFT-guarded factorization.
#[derive(Debug)]
pub struct ResilientCholesky {
    /// Execution trace; [`Trace::resilience`] carries retry/recovery/skip
    /// telemetry. `stats.completed()` is the "factorization finished"
    /// signal — under an exhausted [`RecoveryPolicy`] the run may abort or
    /// skip a subtree, in which case the tiles are *not* a valid factor.
    pub trace: Trace,
    /// Checksum mismatches detected by the tile guards (each one turned a
    /// silent error into a task retry).
    pub detections: usize,
}

/// State shared by every guard of one factorization.
struct Ctx {
    poison: Poison,
    plan: Option<Arc<FaultPlan>>,
    detections: AtomicUsize,
}

/// Factors `a` (SPD, square tile grid) in place with ABFT-guarded,
/// re-executable tile kernels, under `policy`. An optional [`FaultPlan`]
/// injects chaos (panics / silent corruption / stalls) for testing.
///
/// Returns the math errors of the underlying factorization
/// ([`Error::NotPositiveDefinite`]) as `Err`; *fault* handling is
/// reported through the trace's [`ResilienceStats`] instead — check
/// `trace.resilience().completed()` before trusting the factor.
///
/// [`Error::NotPositiveDefinite`]: xsc_core::Error::NotPositiveDefinite
/// [`ResilienceStats`]: xsc_runtime::ResilienceStats
pub fn cholesky_resilient_abft(
    a: &TileMatrix<f64>,
    executor: &Executor,
    policy: RecoveryPolicy,
    plan: Option<Arc<FaultPlan>>,
) -> Result<ResilientCholesky> {
    let ctx = Arc::new(Ctx {
        poison: Poison::new(),
        plan,
        detections: AtomicUsize::new(0),
    });
    // Same DAG as `cholesky::build_graph`, with guarded fallible kernels.
    let mut g = TaskGraph::new();
    for op in tile_ops(a) {
        let ctx = Arc::clone(&ctx);
        let snapshot = OnceLock::new();
        let (name, accesses) = (op.name.clone(), op.accesses.clone());
        g.add_fallible_task_with_cost(name, accesses, op.cost, move |at| {
            guard(&op, &ctx, &snapshot, at)
        });
    }
    let trace = executor.execute_resilient(g, policy);
    ctx.poison.clone().into_result()?;
    Ok(ResilientCholesky {
        trace,
        detections: ctx.detections.load(Ordering::Relaxed),
    })
}

/// One attempt of `op` under the guard. The snapshot of the output tile
/// is taken on attempt 1 and restored on every retry, which makes the
/// read-modify-write kernels idempotent.
fn guard(
    op: &TileOp<f64>,
    ctx: &Ctx,
    snapshot: &OnceLock<Matrix<f64>>,
    at: Attempt,
) -> std::result::Result<(), TaskFault> {
    if ctx.poison.is_set() {
        return Ok(());
    }
    let plan = ctx.plan.as_deref();
    let injection = plan.and_then(|p| p.decide(at.task, at.attempt));
    if let Some(ChaosKind::Stall) = injection {
        std::thread::sleep(STALL);
    }
    op.with_tiles(|ins, out| {
        let before = snapshot.get_or_init(|| out.clone());
        if at.is_retry() {
            out.clone_from(before);
        }
        if let Err(e) = op.apply(ins, out) {
            ctx.poison.set(e);
            return Ok(());
        }
        if let Some(ChaosKind::Panic) = injection {
            panic!("chaos: injected panic in {}({at:?})", op.kind.label());
        }
        if let (Some(p), Some(ChaosKind::SilentCorrupt(kind))) = (plan, injection) {
            match op.kind {
                Kind::Potrf | Kind::Syrk => corrupt_lower(p, kind, out, at.task, at.attempt),
                Kind::Trsm | Kind::Gemm => {
                    p.corrupt_slice(out.as_mut_slice(), kind, at.task, at.attempt)
                }
            }
        }
        verify(op.kind, ins, before, out, &ctx.detections)
    })
}

/// Checks the op's `O(nb²)` checksum identity (module docs) over its
/// inputs `ins`, its output tile `before` it ran, and `after`.
fn verify(
    kind: Kind,
    ins: &[&Matrix<f64>],
    before: &Matrix<f64>,
    after: &Matrix<f64>,
    detections: &AtomicUsize,
) -> std::result::Result<(), TaskFault> {
    let (m, n) = (after.rows(), after.cols());
    let (got, expect, tol) = match kind {
        Kind::Potrf => {
            // L(Lᵀe) = Ae over the live lower triangle.
            let got = cholesky_checksum(after);
            let scale = norms::max_abs(before).max(norms::max_abs(after).powi(2));
            (
                got,
                sym_lower_rowsums(before),
                checksum_tolerance(m, m, m, scale),
            )
        }
        Kind::Trsm => {
            // X(Lᵀe) = Be.
            let l = ins[0];
            let got = matvec(after, &lower_colsums(l));
            let scale = norms::max_abs(l) * norms::max_abs(after);
            let kb = l.rows();
            (
                got,
                full_rowsums(before),
                checksum_tolerance(m, kb, kb, scale),
            )
        }
        Kind::Syrk => {
            // Column-wise over the updated (lower) triangle:
            //   Σ_{r>=j} (C_before − C')_{r,j}  =  Σ_t A_{j,t} · SS_t(j),
            // with SS_t(j) = Σ_{r>=j} A_{r,t} maintained by a descending
            // suffix sweep — O(nb·kb), no recompute of A·Aᵀ.
            let lik = ins[0];
            let kd = lik.cols();
            let mut suffix = vec![0.0f64; kd];
            let mut measured = vec![0.0f64; m];
            let mut predicted = vec![0.0f64; m];
            for j in (0..m).rev() {
                for t in 0..kd {
                    suffix[t] += lik.get(j, t);
                }
                let mut acc = 0.0;
                for t in 0..kd {
                    acc += lik.get(j, t) * suffix[t];
                }
                predicted[j] = acc;
                let mut d = 0.0;
                for r in j..m {
                    d += before.get(r, j) - after.get(r, j);
                }
                measured[j] = d;
            }
            let scale = norms::max_abs(before).max(norms::max_abs(lik).powi(2));
            (measured, predicted, checksum_tolerance(m, m, kd, scale))
        }
        Kind::Gemm => {
            // C'e = Ce − A(Bᵀe).
            let (lik, ljk) = (ins[0], ins[1]);
            let abe = matvec(lik, &colsums(ljk));
            let rhs = full_rowsums(before)
                .iter()
                .zip(abe.iter())
                .map(|(ce, u)| ce - u)
                .collect();
            let scale = norms::max_abs(lik) * norms::max_abs(ljk);
            let tol = checksum_tolerance(m, n, lik.cols(), scale.max(1.0));
            (full_rowsums(after), rhs, tol)
        }
    };
    check(&got, &expect, tol, kind.label(), detections)
}

/// Compares a computed checksum vector against its prediction; a mismatch
/// counts a detection and fails the attempt.
fn check(
    got: &[f64],
    expect: &[f64],
    tol: f64,
    kernel: &str,
    detections: &AtomicUsize,
) -> std::result::Result<(), TaskFault> {
    for (idx, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
        let diff = (g - e).abs();
        if diff > tol || diff.is_nan() {
            detections.fetch_add(1, Ordering::Relaxed);
            return Err(TaskFault::new(format!(
                "{kernel} checksum mismatch at {idx}: |{g:.6e} - {e:.6e}| = {diff:.3e} > {tol:.3e}"
            )));
        }
    }
    Ok(())
}

/// Corrupts a deterministically chosen element of the *live* (lower)
/// triangle — corruption in the stale upper triangle of a diagonal tile
/// would be both undetectable and harmless, i.e. not a fault at all.
fn corrupt_lower(
    plan: &FaultPlan,
    kind: FaultKind,
    m: &mut Matrix<f64>,
    task: usize,
    attempt: u32,
) {
    let n = m.rows();
    let count = n * (n + 1) / 2;
    if let Some(mut v) = plan.victim_index(count, task, attempt) {
        for j in 0..n {
            let col = n - j;
            if v < col {
                let i = j + v;
                m.set(i, j, kind.apply(m.get(i, j)));
                return;
            }
            v -= col;
        }
    }
}

/// `Ae` — full row sums.
fn full_rowsums(m: &Matrix<f64>) -> Vec<f64> {
    let mut r = vec![0.0; m.rows()];
    for j in 0..m.cols() {
        for i in 0..m.rows() {
            r[i] += m.get(i, j);
        }
    }
    r
}

/// `Aᵀe` — column sums.
fn colsums(m: &Matrix<f64>) -> Vec<f64> {
    let mut r = vec![0.0; m.cols()];
    for j in 0..m.cols() {
        for i in 0..m.rows() {
            r[j] += m.get(i, j);
        }
    }
    r
}

/// `Mv` — full mat-vec.
fn matvec(m: &Matrix<f64>, v: &[f64]) -> Vec<f64> {
    let mut r = vec![0.0; m.rows()];
    for j in 0..m.cols() {
        for i in 0..m.rows() {
            r[i] += m.get(i, j) * v[j];
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::lower_from_tiles;
    use xsc_core::gen;
    use xsc_runtime::{Backoff, ExhaustedAction, SchedPolicy};

    fn reference_lower(a: &Matrix<f64>, nb: usize) -> Matrix<f64> {
        let mut f = a.clone();
        factor::potrf_blocked(&mut f, nb).unwrap();
        let n = a.rows();
        Matrix::from_fn(n, n, |i, j| if i >= j { f.get(i, j) } else { 0.0 })
    }

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy::with_max_attempts(6)
            .backoff(Backoff::Fixed(std::time::Duration::from_micros(50)))
    }

    #[test]
    fn fault_free_matches_reference() {
        for (n, nb) in [(48, 16), (40, 12)] {
            let a = gen::random_spd::<f64>(n, 21);
            let tiles = TileMatrix::from_matrix(&a, nb);
            let exec = Executor::new(4, SchedPolicy::CriticalPath);
            let run = cholesky_resilient_abft(&tiles, &exec, policy(), None).unwrap();
            let stats = run.trace.resilience();
            assert!(stats.completed(), "{}", stats.summary());
            assert_eq!(stats.retries, 0, "no faults -> no retries");
            assert_eq!(run.detections, 0, "guards must not false-positive");
            let got = lower_from_tiles(&tiles);
            let expect = reference_lower(&a, nb);
            assert!(
                got.approx_eq(&expect, 1e-9),
                "diff {}",
                got.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn silent_corruption_is_detected_and_healed() {
        let n = 64;
        let nb = 16;
        let a = gen::random_spd::<f64>(n, 22);
        let tiles = TileMatrix::from_matrix(&a, nb);
        let exec = Executor::new(4, SchedPolicy::CriticalPath);
        let plan = Arc::new(FaultPlan::new(
            7,
            0.15,
            ChaosKind::SilentCorrupt(FaultKind::BitFlip),
        ));
        let run =
            cholesky_resilient_abft(&tiles, &exec, policy(), Some(Arc::clone(&plan))).unwrap();
        let stats = run.trace.resilience();
        assert!(stats.completed(), "{}", stats.summary());
        assert!(plan.fired().1 > 0, "rate 0.15 must fire on this DAG");
        assert!(run.detections > 0, "corruptions must be detected");
        assert!(stats.retries >= run.detections as u64 - 1);
        let got = lower_from_tiles(&tiles);
        let expect = reference_lower(&a, nb);
        assert!(
            got.approx_eq(&expect, 1e-9),
            "diff {}",
            got.max_abs_diff(&expect)
        );
    }

    #[test]
    fn panics_are_contained_and_result_is_bitwise_clean() {
        let n = 64;
        let nb = 16;
        let a = gen::random_spd::<f64>(n, 23);

        // Fault-free resilient run as the bitwise reference.
        let clean = TileMatrix::from_matrix(&a, nb);
        let exec = Executor::new(4, SchedPolicy::CriticalPath);
        cholesky_resilient_abft(&clean, &exec, policy(), None).unwrap();

        let tiles = TileMatrix::from_matrix(&a, nb);
        let plan = Arc::new(FaultPlan::new(11, 0.3, ChaosKind::Panic));
        let run =
            cholesky_resilient_abft(&tiles, &exec, policy(), Some(Arc::clone(&plan))).unwrap();
        let stats = run.trace.resilience();
        assert!(stats.completed(), "{}", stats.summary());
        assert!(plan.fired().0 > 0);
        assert!(stats.recoveries > 0);
        // Snapshot/restore + deterministic kernels: the healed factor is
        // *bit-identical* to the fault-free one.
        let got = lower_from_tiles(&tiles);
        let expect = lower_from_tiles(&clean);
        assert_eq!(
            got.max_abs_diff(&expect),
            0.0,
            "retries must be bitwise transparent"
        );
    }

    #[test]
    fn zero_kind_dead_tile_entries_are_detected() {
        let n = 48;
        let nb = 12;
        let a = gen::random_spd::<f64>(n, 24);
        let tiles = TileMatrix::from_matrix(&a, nb);
        let exec = Executor::new(2, SchedPolicy::Fifo);
        let plan = Arc::new(FaultPlan::new(
            13,
            0.2,
            ChaosKind::SilentCorrupt(FaultKind::Zero),
        ));
        let run =
            cholesky_resilient_abft(&tiles, &exec, policy(), Some(Arc::clone(&plan))).unwrap();
        let stats = run.trace.resilience();
        assert!(stats.completed(), "{}", stats.summary());
        assert!(run.detections > 0);
        let got = lower_from_tiles(&tiles);
        let expect = reference_lower(&a, nb);
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn exhausted_budget_skips_subtree_not_whole_run() {
        let n = 64;
        let nb = 16;
        let a = gen::random_spd::<f64>(n, 25);
        let tiles = TileMatrix::from_matrix(&a, nb);
        let exec = Executor::new(4, SchedPolicy::CriticalPath);
        // Rate 1.0: every attempt of every task is corrupted — recovery
        // can never succeed, so the budget exhausts immediately.
        let plan = Arc::new(FaultPlan::new(
            17,
            1.0,
            ChaosKind::SilentCorrupt(FaultKind::BitFlip),
        ));
        let pol = RecoveryPolicy::with_max_attempts(2).on_exhausted(ExhaustedAction::SkipSubtree);
        let run = cholesky_resilient_abft(&tiles, &exec, pol, Some(plan)).unwrap();
        let stats = run.trace.resilience();
        assert!(!stats.completed());
        assert!(
            !stats.aborted,
            "skip-subtree must run the DAG to completion"
        );
        assert!(stats.permanent_failures > 0);
        assert!(stats.skipped > 0, "everything depends on potrf(0)");
    }

    #[test]
    fn not_spd_is_a_math_error_not_a_fault() {
        let n = 32;
        let mut a = gen::random_spd::<f64>(n, 26);
        a.set(20, 20, -50.0);
        let tiles = TileMatrix::from_matrix(&a, 8);
        let exec = Executor::new(2, SchedPolicy::Fifo);
        let err = cholesky_resilient_abft(&tiles, &exec, policy(), None).unwrap_err();
        match err {
            Error::NotPositiveDefinite { pivot } => assert!(pivot >= 16, "pivot {pivot}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn acceptance_gate_8x8_tiles_5pct_mixed_faults() {
        // The PR's chaos gate: >= 8x8 tile grid, 5% per-task fault rate,
        // panic and silent-corruption kinds; the factorization must
        // complete with at least one retry and pass the HPL-style
        // residual bound on the solved system.
        let n = 128;
        let nb = 16; // 8x8 tiles
        let a = gen::random_spd::<f64>(n, 27);
        let b = gen::rhs_for_unit_solution(&a);
        let mut total_retries = 0u64;
        for (seed, kind) in [
            (101, ChaosKind::Panic),
            (102, ChaosKind::SilentCorrupt(FaultKind::BitFlip)),
        ] {
            let tiles = TileMatrix::from_matrix(&a, nb);
            let exec = Executor::new(4, SchedPolicy::CriticalPath);
            let plan = Arc::new(FaultPlan::new(seed, 0.05, kind));
            let run =
                cholesky_resilient_abft(&tiles, &exec, policy(), Some(Arc::clone(&plan))).unwrap();
            let stats = run.trace.resilience();
            assert!(stats.completed(), "kind {kind:?}: {}", stats.summary());
            total_retries += stats.retries;
            let mut x = b.clone();
            crate::cholesky::solve(&tiles, &mut x);
            let r = xsc_core::norms::hpl_scaled_residual(&a, &x, &b);
            assert!(r < 16.0, "HPL residual {r} for {kind:?}");
        }
        assert!(total_retries >= 1, "5% over 120 tasks must retry somewhere");
    }
}
