//! E06 — ABFT overhead and recovery: checksum-protected GEMM/Cholesky,
//! with the verification-frequency ablation (per-gemm vs per-factorization).

use crate::table::{pct, sci, secs, Table};
use crate::{best_of, Scale};
use xsc_core::gemm::{gemm, Transpose};
use xsc_core::{factor, gen, norms, Matrix};
use xsc_ft::abft::{abft_gemm, verified_cholesky};
use xsc_ft::inject::FaultKind;
use xsc_ft::AbftOutcome;

/// The operands of the size-`n` GEMM rows.
pub fn operands(n: usize) -> (Matrix<f64>, Matrix<f64>) {
    (
        gen::random_matrix::<f64>(n, n, 1),
        gen::random_matrix::<f64>(n, n, 2),
    )
}

/// The fault arm of one GEMM row: `abft_gemm` with one bit flip injected
/// at `(n/3, n/2)` of the product; returns the repaired product and the
/// outcome.
pub fn fault_arm(a: &Matrix<f64>, b: &Matrix<f64>) -> (Matrix<f64>, AbftOutcome) {
    let (i, j) = (a.rows() / 3, b.cols() / 2);
    abft_gemm(a, b, |ce| {
        ce.set(i, j, FaultKind::BitFlip.apply(ce.get(i, j)))
    })
}

/// Runs the experiment and prints its table.
pub fn run(scale: Scale) {
    let sizes: Vec<usize> = scale.pick(vec![256, 512], vec![512, 1024, 1536]);
    let reps = scale.pick(2, 3);
    let mut t = Table::new(&[
        "n",
        "plain gemm",
        "ABFT gemm",
        "overhead",
        "fault outcome",
        "resid after repair",
    ]);
    for n in sizes {
        let (a, b) = operands(n);
        let mut c = Matrix::<f64>::zeros(n, n);
        let t_plain = best_of(reps, || {
            gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        });
        let t_abft = best_of(reps, || {
            let _ = abft_gemm(&a, &b, |_| {});
        });
        // Injected single fault, then verify the repaired product.
        let (repaired, outcome) = fault_arm(&a, &b);
        let mut c_ref = Matrix::<f64>::zeros(n, n);
        gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c_ref);
        let resid = repaired.max_abs_diff(&c_ref) / norms::max_abs(&c_ref);
        let outcome_str = match outcome {
            AbftOutcome::Corrected { row, col, .. } => format!("corrected ({row},{col})"),
            AbftOutcome::Clean => "clean".into(),
            AbftOutcome::Uncorrectable => "UNCORRECTABLE".into(),
        };
        t.row(vec![
            n.to_string(),
            secs(t_plain),
            secs(t_abft),
            pct(t_abft / t_plain - 1.0),
            outcome_str,
            sci(resid),
        ]);
    }
    t.print("E06: ABFT-protected GEMM — overhead and single-fault repair");

    // Cholesky: end-of-factorization verification (the cheap frequency in
    // the ablation; per-gemm verification is the abft_gemm path above).
    let n = scale.pick(384, 768);
    let a0 = gen::random_spd::<f64>(n, 3);
    let t_plain = best_of(reps, || {
        let mut f = a0.clone();
        factor::potrf_blocked(&mut f, 64).unwrap();
    });
    let t_ver = best_of(reps, || {
        let mut f = a0.clone();
        verified_cholesky(&mut f, 64, |_| {}).unwrap();
    });
    let mut f = a0.clone();
    let clean = verified_cholesky(&mut f, 64, |l| {
        let v = l.get(n / 2, n / 4);
        l.set(n / 2, n / 4, v + 1.0);
    })
    .unwrap();
    let mut t2 = Table::new(&[
        "n",
        "plain potrf",
        "verified potrf",
        "overhead",
        "tampered run detected",
    ]);
    t2.row(vec![
        n.to_string(),
        secs(t_plain),
        secs(t_ver),
        pct(t_ver / t_plain - 1.0),
        (!clean).to_string(),
    ]);
    t2.print("E06b: checksum-verified Cholesky (verify once per factorization)");
    println!("  keynote claim: ABFT protects O(n^3) kernels at O(n^2) cost — a few percent.");
}
