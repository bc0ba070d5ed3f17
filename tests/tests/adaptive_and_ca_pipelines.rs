//! Integration tests for the adaptive precision dispatcher and the
//! communication-avoiding Krylov stack.

use xsc_core::{cond, factor, gen, norms};
use xsc_precision::{adaptive_solve, SolverChoice};
use xsc_sparse::matrix_powers::matrix_powers;
use xsc_sparse::sstep::s_step_cg;
use xsc_sparse::stencil::{build_matrix, build_rhs, Geometry};
use xsc_sparse::{pcg, pipelined_cg, Identity, SparseOps};

#[test]
fn adaptive_solver_escalates_with_conditioning() {
    // Sweep condition numbers; the chosen strategy must be monotone:
    // ClassicIr -> GmresIr -> FullPrecision as kappa grows.
    let rank = |c: SolverChoice| match c {
        SolverChoice::ClassicIr => 0,
        SolverChoice::GmresIr => 1,
        SolverChoice::FullPrecision => 2,
    };
    let mut last = 0;
    for (i, kappa) in [1e2, 3e8, 1e13].into_iter().enumerate() {
        let a = gen::ill_conditioned_spd::<f64>(48, kappa, 7 + i as u64);
        let b = gen::rhs_for_unit_solution(&a);
        let (x, rep) = adaptive_solve(&a, &b).unwrap();
        assert!(
            rank(rep.choice) >= last,
            "κ={kappa:.0e} chose {:?} after a harder choice earlier",
            rep.choice
        );
        last = rank(rep.choice);
        assert!(norms::hpl_scaled_residual(&a, &x, &b) < 16.0);
    }
    assert_eq!(last, 2, "κ=1e13 must end at full precision");
}

#[test]
fn condest_agrees_with_ir_behavior() {
    // If the estimator says classic IR converges, it must; if it says it
    // cannot (by a wide margin), it must not.
    let a_good = gen::diag_dominant::<f64>(48, 1);
    let mut lu = a_good.clone();
    let piv = factor::getrf_blocked(&mut lu, 16).unwrap();
    let k_good = cond::condest(&a_good, &lu, &piv);
    assert!(cond::ir_should_converge(k_good, f32::EPSILON as f64));
    let b = gen::rhs_for_unit_solution(&a_good);
    assert!(xsc_precision::lu_ir_solve::<f32>(&a_good, &b, 30, None).is_ok());

    let a_bad = gen::ill_conditioned_spd::<f64>(48, 1e12, 2);
    let mut lu = a_bad.clone();
    let piv = factor::getrf_blocked(&mut lu, 16).unwrap();
    let k_bad = cond::condest(&a_bad, &lu, &piv);
    assert!(!cond::ir_should_converge(k_bad, f32::EPSILON as f64));
}

#[test]
fn all_cg_variants_reach_the_same_solution() {
    let g = Geometry::new(8, 8, 8);
    let a = build_matrix(g);
    let (mut b, _) = build_rhs(&a);
    for (i, v) in b.iter_mut().enumerate() {
        *v += ((i * 7919) % 103) as f64 / 103.0 - 0.5;
    }
    let n = a.nrows();

    let mut x_classic = vec![0.0; n];
    let classic = pcg(&a, &b, &mut x_classic, 1000, 1e-10, &Identity);
    let mut x_pipe = vec![0.0; n];
    let pipe = pipelined_cg(&a, &b, &mut x_pipe, 1000, 1e-10);
    let mut x_ca = vec![0.0; n];
    let ca = s_step_cg(&a, &b, &mut x_ca, 3, 1000, 1e-10);

    assert!(classic.converged && pipe.converged && ca.converged);
    for i in 0..n {
        assert!(
            (x_classic[i] - x_pipe[i]).abs() < 1e-7,
            "pipelined differs at {i}"
        );
        assert!(
            (x_classic[i] - x_ca[i]).abs() < 1e-7,
            "s-step differs at {i}"
        );
    }
}

#[test]
fn matrix_powers_feeds_s_step_consistently() {
    // The basis the matrix-powers kernel builds spans the Krylov space the
    // s-step method uses: A^k x computed by MPK equals k repeated SpMVs.
    let g = Geometry::new(5, 5, 5);
    let a = build_matrix(g);
    let x: Vec<f64> = (0..a.nrows())
        .map(|i| ((i * 31) % 17) as f64 - 8.0)
        .collect();
    let mp = matrix_powers(&a, &x, 4, 25);
    let mut v = x.clone();
    for k in 1..=4 {
        let mut next = vec![0.0; a.nrows()];
        a.spmv(&v, &mut next);
        v = next;
        for (u, w) in mp.basis[k].iter().zip(v.iter()) {
            assert!((u - w).abs() < 1e-11, "power {k} diverges");
        }
    }
    assert_eq!(mp.rounds_saved(), 3);
}

#[test]
fn chebyshev_mg_hpcg_pipeline() {
    // Full alternative HPCG pipeline: Chebyshev-smoothed MG preconditioning
    // CG end to end.
    use xsc_sparse::mg::{MgPreconditioner, Smoother};
    let g = Geometry::new(16, 16, 16);
    let a = build_matrix(g);
    let (b, _) = build_rhs(&a);
    let mg = MgPreconditioner::with_smoother(g, 3, Smoother::Chebyshev { degree: 4 });
    let mut x = vec![0.0; a.nrows()];
    let res = pcg(&a, &b, &mut x, 100, 1e-9, &mg);
    assert!(res.converged, "residual {:?}", res.final_residual());
    assert!(res.iterations <= 30, "{} iterations", res.iterations);
}
