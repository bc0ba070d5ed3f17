//! Cross-crate pipelines combining fault tolerance, mixed precision, and
//! the sparse solvers.

use xsc_core::{gen, norms};
use xsc_ft::abft::abft_gemm;
use xsc_ft::checkpoint::{resilient_cg, Recovery};
use xsc_ft::inject::FaultKind;
use xsc_ft::plan::FaultPlan;
use xsc_ft::AbftOutcome;
use xsc_precision::ir::lu_ir_solve;
use xsc_precision::Half;
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::{pcg, Identity, SparseOps};

#[test]
fn abft_protected_matmul_inside_solver_pipeline() {
    // Build normal equations with ABFT-protected GEMM under a fault, then
    // solve them: the repaired product must be good enough for Cholesky.
    let m = 48;
    let n = 24;
    let a = gen::random_matrix::<f64>(m, n, 1);
    let at = a.transpose();
    let (gram, outcome) = abft_gemm(&at, &a, |c| {
        c.set(3, 7, FaultKind::BitFlip.apply(c.get(3, 7)));
    });
    assert!(matches!(outcome, AbftOutcome::Corrected { .. }));
    // Gram matrix must still be SPD after repair.
    let mut f = gram.clone();
    xsc_core::factor::potrf_blocked(&mut f, 8).expect("repaired Gram matrix is SPD");
}

#[test]
fn mixed_precision_ir_then_verified_by_hpl_residual() {
    let n = 128;
    let a = gen::diag_dominant::<f64>(n, 3);
    let b = gen::rhs_for_unit_solution(&a);
    let (x, rep) = lu_ir_solve::<f32>(&a, &b, 30, None).unwrap();
    assert!(rep.converged);
    // The HPL acceptance criterion is the cross-check.
    assert!(norms::hpl_scaled_residual(&a, &x, &b) < 16.0);
}

#[test]
fn fp16_ir_and_fp32_ir_reach_the_same_answer() {
    let n = 48;
    let a = gen::diag_dominant::<f64>(n, 4);
    let b = gen::rhs_for_unit_solution(&a);
    let (x16, _) = lu_ir_solve::<Half>(&a, &b, 60, None).unwrap();
    let (x32, _) = lu_ir_solve::<f32>(&a, &b, 30, None).unwrap();
    for (p, q) in x16.iter().zip(x32.iter()) {
        assert!((p - q).abs() < 1e-8, "{p} vs {q}");
    }
}

#[test]
fn resilient_cg_matches_plain_pcg_when_fault_free() {
    let g = Geometry::new(6, 6, 6);
    let a = build_matrix(g);
    let (b, _) = build_rhs(&a);

    let mut x_plain = vec![0.0; a.nrows()];
    let plain = pcg(&a, &b, &mut x_plain, 500, 1e-9, &Identity);

    let plan = FaultPlan::new(5, 0.0, FaultKind::BitFlip);
    let resilient = resilient_cg(&a, &b, 500, 1e-9, &plan, Recovery::Restart, 10, 1e-6);

    assert!(plain.converged && resilient.converged);
    // Same algorithm, same deterministic reductions: iteration counts are
    // close (the resilient driver re-checks the true residual).
    assert!(
        (plain.iterations as i64 - resilient.iterations as i64).unsigned_abs() <= 2,
        "plain {} vs resilient {}",
        plain.iterations,
        resilient.iterations
    );
}

#[test]
fn faulty_cg_still_reaches_true_solution() {
    let g = Geometry::new(6, 6, 8);
    let a = build_matrix(g);
    let (mut b, _) = build_rhs(&a);
    for (i, v) in b.iter_mut().enumerate() {
        *v += ((i * 40503) % 997) as f64 / 997.0 - 0.5;
    }
    // The first seed in 0..64 whose plan fires within iterations 1..=5, so
    // faults land while CG is still far from converged.
    let plan = (0..64)
        .map(|seed| FaultPlan::new(seed, 0.1, FaultKind::BitFlip))
        .find(|plan| (1..=5).any(|it| plan.fires_at(it, 0)))
        .expect("some seed in 0..64 fires within iterations 1..=5");
    let rep = resilient_cg(
        &a,
        &b,
        5000,
        1e-9,
        &plan,
        Recovery::Checkpoint { interval: 8 },
        4,
        1e-6,
    );
    assert!(rep.converged, "{rep:?}");
    assert!(rep.final_residual < 1e-8);
}
