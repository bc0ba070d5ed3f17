//! End-to-end runs of both benchmark drivers — the integration HPL and HPCG
//! themselves perform before reporting a number.

use xsc_core::{factor, gen, norms};
use xsc_dense::hpl;
use xsc_sparse::{run_hpcg, Geometry};

#[test]
fn hpl_like_run_passes_acceptance() {
    let r = hpl::run_hpl(192, 48, 1).expect("random HPL matrix is nonsingular");
    assert!(r.passed, "scaled residual {}", r.scaled_residual);
    assert!(r.gflops > 0.0);
    assert!(r.seconds > 0.0);
}

#[test]
fn parallel_lu_agrees_with_sequential_reference_end_to_end() {
    // One step loop behind both drivers: the factors, pivots and solutions
    // are the same bits. n = 160 with nb = 32 (even), 173 with 32 (a
    // ragged last panel) and 20 with 32 (one panel).
    for (n, nb) in [(160, 32), (173, 32), (20, 32)] {
        let a = gen::random_matrix::<f64>(n, n, 2);
        let b = gen::rhs_for_unit_solution(&a);

        let mut f_par = a.clone();
        let piv_par = hpl::par_getrf(&mut f_par, nb).unwrap();
        let mut x_par = b.clone();
        factor::getrf_solve(&f_par, &piv_par, &mut x_par);

        let mut f_seq = a.clone();
        let piv_seq = factor::getrf_blocked(&mut f_seq, nb).unwrap();
        let mut x_seq = b.clone();
        factor::getrf_solve(&f_seq, &piv_seq, &mut x_seq);

        assert_eq!(piv_par, piv_seq, "n={n} nb={nb}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(f_par.as_slice()) == bits(f_seq.as_slice()),
            "factors differ n={n} nb={nb}"
        );
        assert_eq!(bits(&x_par), bits(&x_seq), "solutions differ n={n} nb={nb}");
        assert!(norms::relative_residual(&a, &x_par, &b) < 1e-10);
    }
}

#[test]
fn hpcg_like_run_converges_and_accounts_flops() {
    let g = Geometry::new(16, 16, 16);
    let r = run_hpcg(g, 3, 20);
    assert_eq!(r.n, 4096);
    assert!(r.passed, "final residual {}", r.final_residual);
    assert!(r.final_residual < 1e-6);
    // Gflop/s must be consistent with a plausible flop count: at least
    // 20 iterations x 2 nnz flops for the SpMVs alone.
    let min_flops = 20.0 * 2.0 * r.nnz as f64;
    assert!(
        r.gflops * r.seconds * 1e9 > min_flops,
        "accounted flops below the SpMV floor"
    );
}

#[test]
fn hpl_and_hpcg_gap_has_the_right_direction() {
    // Same machine, same accounting style: dense LU must achieve a higher
    // flop rate than the memory-bound HPCG pipeline. (n is large enough
    // that blocked LU reaches its asymptotic rate even in the test
    // profile, where debug assertions tax the dense indexing.)
    let r_hpl = hpl::run_hpl(512, 128, 3).unwrap();
    // The grid must exceed the caches (a 16^3 problem is cache-resident
    // and loses its memory-bound character): 32^3 is ~14 MB of matrix.
    let r_hpcg = run_hpcg(Geometry::new(32, 32, 32), 3, 10);
    assert!(
        r_hpl.gflops > r_hpcg.gflops,
        "HPL {} Gflop/s should exceed HPCG {} Gflop/s",
        r_hpl.gflops,
        r_hpcg.gflops
    );
}
